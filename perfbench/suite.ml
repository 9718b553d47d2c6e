(* suite-j2: the whole experiment catalogue at seed 7, fanned over the
   domain pool at two jobs exactly as `strovl_run run all -j 2` does
   (Strovl_par.Pool.map over Strovl_expt.run_isolated), round after round.
   Every round's tables are checked against the paper's claims, each in the
   shape the paper states, with every expected value computed here. The
   catalogue's inputs are fixed (seed 7) whatever the workload seed: its
   tables are what the claims are checked on. *)

module M = Measure
module T = Strovl_expt.Table

let expt_seed = 7L
let jobs = 2
let catalogue = Array.of_list Strovl_expt.all

type job = { table : T.t; busy_s : float }

let run_job (e : Strovl_expt.experiment) =
  let t0 = M.now_s () in
  let table, _ = Strovl_expt.run_isolated ~seed:expt_seed e in
  { table; busy_s = M.now_s () -. t0 }

(* ----------------------------- cell parsing ----------------------------- *)

let strip_suffix s suf =
  let n = String.length s and k = String.length suf in
  if n >= k && String.sub s (n - k) k = suf then String.sub s 0 (n - k) else s

let num s = float_of_string (String.trim (strip_suffix (strip_suffix s "ms") "%"))

let starts_with s p =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let col (t : T.t) name =
  let rec find i = function
    | [] -> failwith (Printf.sprintf "%s: no column %S" t.T.id name)
    | h :: rest -> if h = name then i else find (i + 1) rest
  in
  find 0 t.T.header

let cell t row name = List.nth row (col t name)

(* --------------------------- the paper's claims -------------------------- *)

let claims : (string * (T.t -> unit)) list =
  [
    ( "reroute-bgp",
      fun t ->
        List.iter
          (fun row ->
            let name = List.nth row 0 and ms = num (cell t row "interruption") in
            if starts_with name "overlay" then
              M.check (ms < 1000.) "reroute-bgp: %s takes %.2f ms, not sub-second" name ms
            else if starts_with name "direct IP" then
              M.check (ms >= 40_000.) "reroute-bgp: BGP row %.2f ms is under 40 s" ms)
          t.T.rows );
    ( "fig3-recovery",
      fun t ->
        let p99 loss scheme =
          List.find_map
            (fun row ->
              if cell t row "seg-loss" = loss && cell t row "scheme" = scheme then
                Some (num (cell t row "p99"))
              else None)
            t.T.rows
        in
        let losses = List.sort_uniq compare (List.map (fun r -> cell t r "seg-loss") t.T.rows) in
        M.check (losses <> []) "fig3-recovery: no rows";
        List.iter
          (fun loss ->
            match (p99 loss "hop-by-hop", p99 loss "e2e-arq") with
            | Some h, Some e ->
              M.check (h < e) "fig3-recovery: at %s hop-by-hop p99 %.2f >= e2e %.2f" loss h e
            | _ -> M.check false "fig3-recovery: missing rows at %s" loss)
          losses );
    ( "multicast",
      fun t ->
        List.iter
          (fun row ->
            let tx = num (cell t row "tx/pkt (measured)")
            and tree = num (cell t row "tree links") in
            M.check (tx = tree) "multicast: tx/pkt %.2f <> tree size %.0f" tx tree)
          t.T.rows );
    ( "disjoint-k",
      fun t ->
        List.iter
          (fun row ->
            let scheme = cell t row "scheme" in
            let k =
              if scheme = "single-path" then Some 1
              else if String.length scheme > 9 && String.sub scheme 1 9 = "-disjoint" then
                Some (Char.code scheme.[0] - Char.code '0')
              else None
            in
            let c = int_of_string (cell t row "compromised") in
            match k with
            | Some k when c < k ->
              let d = num (cell t row "delivered") in
              M.check (d = 100.) "disjoint-k: %s with %d compromised delivers %.1f%%" scheme c d
            | _ -> ())
          t.T.rows );
    ( "fairness",
      fun t ->
        List.iter
          (fun row ->
            if cell t row "scheduler" = "round-robin" then begin
              let d = num (cell t row "delivered") in
              M.check (d >= 98.) "fairness: round-robin %s at %s pps delivers %.1f%%"
                (cell t row "source") (cell t row "attack pps") d
            end)
          t.T.rows );
    ( "backpressure",
      fun t ->
        let healthy =
          List.filter
            (fun row ->
              let f = cell t row "flow" in
              let k = String.length "(healthy)" in
              String.length f >= k && String.sub f (String.length f - k) k = "(healthy)")
            t.T.rows
        in
        M.check (healthy <> []) "backpressure: no healthy flow row";
        List.iter
          (fun row ->
            let d = num (cell t row "delivered") in
            M.check (d >= 99.) "backpressure: healthy flow delivers %.1f%%" d)
          healthy );
    ( "node-capacity",
      fun t ->
        List.iter
          (fun row ->
            let offered = num (cell t row "offered pps")
            and cluster = num (cell t row "cluster")
            and d = num (cell t row "delivered") in
            let expect = 100. *. Float.min 1. (5000. *. cluster /. offered) in
            M.check (Float.abs (d -. expect) <= 2.)
              "node-capacity: %.0f pps on %.0f computers delivers %.1f%%, expected %.1f%%" offered
              cluster d expect)
          t.T.rows );
    ( "fig4-nmstrikes",
      fun t ->
        (* NM-Strikes(N=3, M=3) costs about 1 + M*p on the data wire
           (SIV-A), p the mean loss rate named in the row. *)
        let m = 3. in
        List.iter
          (fun row ->
            if cell t row "protocol" = "nm-strikes(3,3)" then begin
              let lb = cell t row "loss/burst" in
              let p = num (List.hd (String.split_on_char '/' lb)) /. 100. in
              let o = num (cell t row "overhead") in
              (* the cell is rounded to 0.01 *)
              M.check (Float.abs (o -. (1. +. (m *. p))) <= 0.05 +. 1e-9)
                "fig4-nmstrikes: overhead %.2f at %s is not within 0.05 of 1+Mp = %.3f" o lb
                (1. +. (m *. p))
            end)
          t.T.rows );
  ]

let check_tables (tables : T.t array) =
  Array.iteri
    (fun i (t : T.t) ->
      let e = catalogue.(i) in
      M.check (t.T.id = e.Strovl_expt.id) "suite: slot %d holds %s, not %s" i t.T.id
        e.Strovl_expt.id;
      M.check (t.T.rows <> []) "suite: %s has no rows" t.T.id;
      match List.assoc_opt t.T.id claims with
      | Some claim -> (
        try claim t with
        | Failure msg | Invalid_argument msg -> M.check false "%s: table unreadable: %s" t.T.id msg)
      | None -> ())
    tables

(* ------------------------------- rounds ------------------------------- *)

(* The set-up the catalogue's scenarios repeat: build, start and settle an
   overlay (Strovl_expt.Common.build) on each topology family they use. *)
let setup_specs () =
  let ms = Strovl_sim.Time.ms 10 in
  Strovl_topo.Gen.
    [
      us_backbone ();
      global_backbone ();
      circulant ~n:12 ~jumps:[ 1; 2 ] ~hop_delay:ms;
      chain ~n:6 ~hop_delay:ms;
    ]

let setup_once () =
  let t0 = M.now_s () in
  List.iter
    (fun spec -> ignore (Sys.opaque_identity (Strovl_expt.Common.build ~seed:expt_seed spec)))
    (setup_specs ());
  M.now_s () -. t0

type round = {
  setup_s : float;
  wall_s : float;
  cpu_s : float;
  jobs_out : job option array;
  failed : int;
}

let round () =
  let setup_s = M.median (List.init 3 (fun _ -> setup_once ())) in
  Gc.full_major ();
  let c0 = M.cpu_total () and t0 = M.now_s () in
  let outs = Strovl_par.Pool.map ~jobs (fun _ e -> run_job e) catalogue in
  let wall_s = M.now_s () -. t0 in
  let cpu_s = M.cpu_total () -. c0 in
  let jobs_out =
    Array.mapi
      (fun i o ->
        match o with
        | Strovl_par.Pool.Done j -> Some j
        | Strovl_par.Pool.Failed { exn; _ } ->
          Printf.eprintf "perfbench: %s raised %s\n%!" catalogue.(i).Strovl_expt.id exn;
          None)
      outs
  in
  let failed = Array.fold_left (fun a j -> if j = None then a + 1 else a) 0 jobs_out in
  let done_ = Array.to_list jobs_out |> List.filter_map Fun.id in
  if failed = 0 then check_tables (Array.of_list (List.map (fun j -> j.table) done_));
  { setup_s; wall_s; cpu_s; jobs_out; failed }

let result_of rs metrics =
  {
    M.correct = !M.problems = [];
    attempted = List.length rs * Array.length catalogue;
    failed = List.fold_left (fun a r -> a + r.failed) 0 rs;
    metrics;
  }

let run ~seconds =
  let rs = M.rounds ~seconds round in
  let med f = M.median (List.map f rs) in
  M.say "suite-j2: %d rounds of %d experiments at -j %d" (List.length rs)
    (Array.length catalogue) jobs;
  M.say "suite-j2: suite_wall_s %.3f, suite_cpu_s %.3f (medians)" (med (fun r -> r.wall_s))
    (med (fun r -> r.cpu_s));
  result_of rs
    [
      M.m "setup_s" "s" (med (fun r -> r.setup_s));
      M.m "cpu_s" "s" (med (fun r -> r.cpu_s));
      M.m "heap_peak_mb" "MB" (M.first_round_heap_mb ());
    ]

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* One pass at -j 2 as in the untraced run, then every experiment alone and
   in catalogue order (its wall time, and the reference tables the parallel
   pass must match byte for byte), then a pass at -j 2 with the online
   invariant auditor riding every experiment, which must come back clean. *)
let audited (e : Strovl_expt.experiment) =
  Strovl_obs.Ctx.isolate (fun () ->
      Strovl_obs.Trace.enable ~capacity:(1 lsl 16) ();
      Strovl_obs.Audit.arm ();
      ignore (e.Strovl_expt.run ~seed:expt_seed ());
      let vs = Strovl_obs.Audit.finish () in
      List.iter
        (fun v -> Format.eprintf "  %s: %a@." e.Strovl_expt.id Strovl_obs.Audit.pp_violation v)
        vs;
      List.length vs)

let run_traced ~seed =
  let g0 = (Gc.quick_stat ()).Gc.major_collections in
  let r = round () in
  let majors = (Gc.quick_stat ()).Gc.major_collections - g0 in
  let busy = Array.map (function Some j -> j.busy_s | None -> 0.) r.jobs_out in
  let idle = (float_of_int jobs *. r.wall_s) -. Array.fold_left ( +. ) 0. busy in
  let critical = Array.fold_left Float.max 0. busy in
  let seq = Array.map run_job catalogue in
  Array.iteri
    (fun i j ->
      match r.jobs_out.(i) with
      | Some p ->
        M.check (T.to_json p.table = T.to_json j.table) "suite: %s differs between -j %d and -j 1"
          j.table.T.id jobs
      | None -> ())
    seq;
  let audit = Strovl_par.Pool.map ~jobs (fun _ e -> audited e) catalogue in
  Array.iteri
    (fun i o ->
      let id = catalogue.(i).Strovl_expt.id in
      match o with
      | Strovl_par.Pool.Done n -> M.check (n = 0) "suite: auditor flags %d violations in %s" n id
      | Strovl_par.Pool.Failed { exn; _ } -> M.check false "suite: audited %s raised %s" id exn)
    audit;
  M.say "suite-j2 traced: -j %d wall %.3f s, pool idle %.3f s, critical job %.3f s, sequential sum %.3f s"
    jobs r.wall_s idle critical
    (Array.fold_left (fun a j -> a +. j.busy_s) 0. seq);
  let layer =
    [
      ("pool.idle_s", idle);
      ("pool.critical_job_s", critical);
      ("gc.major_collections", float_of_int majors);
    ]
    @ Array.to_list
        (Array.mapi (fun i j -> ("expt." ^ catalogue.(i).Strovl_expt.id ^ ".wall_s", j.busy_s)) seq)
    @ Layers.crypto (Strovl_sim.Rng.create (Int64.of_int seed))
  in
  result_of [ r ] (Layers.complete layer)
