(* Clocks, CPU accounting, order statistics and the result record shared by
   every workload. All timing is taken from outside the program under test:
   the monotonic clock around calls into its public functions, [Unix.times]
   for process CPU, and [Gc] for allocation. *)

let now_s () = Int64.to_float (Strovl_rt.Clock.now_ns ()) /. 1e9
let now_ns () = Strovl_rt.Clock.now_ns ()

(* Process CPU seconds (user, system), all domains included. *)
let cpu () =
  let t = Unix.times () in
  (t.Unix.tms_utime, t.Unix.tms_stime)

let cpu_total () =
  let u, s = cpu () in
  u +. s

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* The peak major heap as it stood after a run's first round (set-up
   included). Every run does that same first round, whereas later rounds
   only add chances for the heap to creep; so this is the figure runs of
   different lengths agree on. *)
let first_heap = ref nan

let first_round_heap_mb () = !first_heap

(* Whole rounds until [seconds] have passed. A round that would end well
   past the deadline, judged by the length of the one before, is not
   started. *)
let rounds ~seconds f =
  let t0 = now_s () in
  let rec go acc last =
    let elapsed = now_s () -. t0 in
    if acc <> [] && (elapsed >= seconds || elapsed +. last > 1.1 *. seconds) then List.rev acc
    else begin
      let s = now_s () in
      let r = f () in
      if acc = [] then first_heap := heap_peak_mb ();
      go (r :: acc) (now_s () -. s)
    end
  in
  go [] 0.

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile of a sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

(* The highest of the usual tail percentiles that still has at least ten
   samples beyond it, as [(label, q)]; [None] below forty samples, where no
   tail is supported. *)
let tail_quantile n =
  if n < 40 then None
  else
    List.find_opt
      (fun (_, q) -> float_of_int n *. (1. -. q) >= 10.)
      [ ("p99.9", 0.999); ("p99", 0.99); ("p95", 0.95); ("p90", 0.9); ("p75", 0.75) ]

(* Times [f] over [iters] calls, best of [blocks] blocks, in ns per call. The
   minimum over blocks discards the blocks a scheduler preemption hit. *)
let ns_per_call ?(blocks = 5) ~iters f =
  let best = ref infinity in
  for _ = 1 to blocks do
    let t0 = now_ns () in
    for i = 0 to iters - 1 do
      f i
    done;
    let dt = Int64.to_float (Int64.sub (now_ns ()) t0) in
    best := Float.min !best (dt /. float_of_int iters)
  done;
  !best

(* One metric as printed: name, value, unit. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let result_json r =
  let ms =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
          (Printf.sprintf "%.17g" x.value) x.unit_)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " ms)

(* Human-readable lines go to stdout ahead of the result line. *)
let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Correctness failures are collected, printed, and turn [correct] false. *)
let problems : string list ref = ref []

let check cond fmt =
  Printf.ksprintf
    (fun msg ->
      if not cond then begin
        if List.length !problems < 50 then problems := msg :: !problems;
        Printf.eprintf "perfbench: CHECK FAILED: %s\n%!" msg
      end)
    fmt
