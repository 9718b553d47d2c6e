(* Per-layer costs, measured from outside the program: each replays inputs
   recorded during the traced run (or, for the crypto layer, seeded
   synthetic packets) through one layer's public functions and reports ns
   per call, best of several blocks. *)

open Strovl_sim
module P = Strovl.Packet
module W = Strovl.Wire
module M = Measure

(* The per-layer metric names every traced run prints, with units. A layer
   that is not on a workload's path reads 0 there. *)
let names =
  [
    ("engine.events_per_pkt", "count");
    ("engine.ns_per_event", "ns");
    ("underlay.transmits_per_fwd", "count");
    ("underlay.ns_per_transmit", "ns");
    ("lproto.reliable.ctrl_msgs_per_pkt", "count");
    ("lproto.reliable.retx_per_pkt", "count");
    ("node.fwd_per_delivered", "count");
    ("dedup.ns_per_seen", "ns");
    ("route.ns_per_next_hop", "ns");
    ("auth.sign_ns", "ns");
    ("auth.verify_ns", "ns");
    ("siphash.ns_per_1316B", "ns");
    ("wire.encode_ns", "ns");
    ("wire.decode_ns", "ns");
    ("wire.bytes_per_dgram", "B");
    ("udp.sendto_ns", "ns");
    ("udp.recvfrom_ns", "ns");
    ("rt.tx_dgrams_per_pkt", "count");
    ("rt.rx_dgrams_per_pkt", "count");
    ("rt.user_us_per_pkt", "us");
    ("rt.sys_us_per_pkt", "us");
    ("rt.lat_p50_us", "us");
    ("rt.lat_tail_us", "us");
    ("rt.gen_late_p50_us", "us");
    ("runtime.steps_per_pkt", "count");
    ("runtime.idle_us_per_pkt", "us");
    ("gc.minor_words_per_pkt", "words");
    ("gc.major_collections", "count");
    ("pool.idle_s", "s");
    ("pool.critical_job_s", "s");
  ]
  @ List.map (fun (e : Strovl_expt.experiment) -> ("expt." ^ e.Strovl_expt.id ^ ".wall_s", "s"))
      Strovl_expt.all
  @ [
      ("obs.trace_ns_per_pkt", "ns");
      ("recon.measured_ns_per_pkt", "ns");
      ("recon.explained_ns_per_pkt", "ns");
      ("recon.unexplained_ns_per_pkt", "ns");
    ]

(* Every name, in order, with the measured value or 0. *)
let complete measured =
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n names) then invalid_arg ("perfbench: undeclared layer metric " ^ n))
    measured;
  List.map
    (fun (n, u) ->
      M.m n u (match List.assoc_opt n measured with Some v -> v | None -> 0.))
    names

(* --------------------------------- engine -------------------------------- *)

(* Schedule and step over a recorded sequence of event fire times, with the
   queue held at the run's mean population: each step pops the earliest
   event and schedules the one [population] places later in the record. *)
let engine_ns_per_event ~fire_times ~population =
  let n = Array.length fire_times in
  if n < 2 then 0.
  else begin
    (* The record spans several engines, each starting its clock at zero:
       rebuild one monotone timeline from the gaps within each. *)
    let times = Array.make n 0 in
    for i = 1 to n - 1 do
      times.(i) <- times.(i - 1) + max 0 (fire_times.(i) - fire_times.(i - 1))
    done;
    let p = max 1 (min population (n - 1)) in
    let f () = () in
    let best = ref infinity in
    for _ = 1 to 3 do
      let e = Engine.create () in
      for i = 0 to p - 1 do
        ignore (Engine.schedule_at e ~at:times.(i) f)
      done;
      let t0 = M.now_ns () in
      for i = p to n - 1 do
        ignore (Engine.step e);
        ignore (Engine.schedule_at e ~at:times.(i) f)
      done;
      let dt = Int64.to_float (Int64.sub (M.now_ns ()) t0) in
      best := Float.min !best (dt /. float_of_int (n - p))
    done;
    !best
  end

(* --------------------------------- crypto -------------------------------- *)

let synthetic_packets rng n =
  Array.init n (fun i ->
      let flow =
        { P.f_src = Rng.int rng 12; f_sport = 100 + Rng.int rng 8;
          f_dest = P.To_node (Rng.int rng 12); f_dport = 200 + Rng.int rng 8 }
      in
      P.make ~flow ~routing:P.Link_state ~service:P.It_reliable ~seq:i
        ~sent_at:(Rng.int rng 1_000_000) ~bytes:(64 + Rng.int rng 1337) ())

let crypto rng =
  let pkts = synthetic_packets rng 1024 in
  let msgs = Array.map P.signable pkts in
  let nodes = 12 in
  let reg = Strovl_crypto.Auth.create_registry ~master:"perfbench" ~nodes in
  let n = Array.length msgs in
  let src i = pkts.(i land (n - 1)).P.flow.P.f_src in
  let tags = Array.mapi (fun i m -> Strovl_crypto.Auth.sign reg ~node:(src i) m) msgs in
  let sink = ref 0L in
  let sign_ns =
    M.ns_per_call ~iters:20_000 (fun i ->
        let j = i land (n - 1) in
        sink := Int64.logxor !sink (Strovl_crypto.Auth.sign reg ~node:(src j) msgs.(j)))
  in
  let ok = ref 0 in
  let verify_ns =
    M.ns_per_call ~iters:20_000 (fun i ->
        let j = i land (n - 1) in
        if Strovl_crypto.Auth.verify_sign reg ~node:(src j) msgs.(j) tags.(j) then incr ok)
  in
  M.check (!ok = 5 * 20_000) "auth: %d of %d signatures failed to verify" ((5 * 20_000) - !ok)
    (5 * 20_000);
  let key = Strovl_crypto.Siphash.key_of_ints (Rng.int64 rng) (Rng.int64 rng) in
  let block = String.init 1316 (fun _ -> Char.chr (Rng.int rng 256)) in
  let sip_ns =
    M.ns_per_call ~iters:5_000 (fun _ ->
        sink := Int64.logxor !sink (Strovl_crypto.Siphash.hash key block))
  in
  ignore (Sys.opaque_identity !sink);
  [ ("auth.sign_ns", sign_ns); ("auth.verify_ns", verify_ns); ("siphash.ns_per_1316B", sip_ns) ]

(* ---------------------------------- wire --------------------------------- *)

(* Encode and decode over a datagram mix; checks the round trip. *)
let wire (dgrams : W.datagram array) =
  let n = Array.length dgrams in
  if n = 0 then []
  else begin
    let encoded = Array.map W.encode_datagram dgrams in
    Array.iteri
      (fun i s ->
        M.check (W.decode_datagram s = Ok dgrams.(i)) "wire: datagram %d does not round-trip" i)
      encoded;
    let iters = max n 20_000 in
    let sink = ref 0 in
    let enc =
      M.ns_per_call ~iters (fun i -> sink := !sink + String.length (W.encode_datagram dgrams.(i mod n)))
    in
    let dec =
      M.ns_per_call ~iters (fun i ->
          match W.decode_datagram encoded.(i mod n) with Ok _ -> incr sink | Error _ -> ())
    in
    ignore (Sys.opaque_identity !sink);
    let bytes = Array.fold_left (fun a s -> a + String.length s) 0 encoded in
    [
      ("wire.encode_ns", enc);
      ("wire.decode_ns", dec);
      ("wire.bytes_per_dgram", float_of_int bytes /. float_of_int n);
    ]
  end

(* A bounded sample: keeps every [every]-th offered item, up to [cap]. *)
type 'a sample = { mutable items : 'a list; mutable len : int; mutable seen : int; every : int; cap : int }

let sample ~every ~cap = { items = []; len = 0; seen = 0; every; cap }

let offer s x =
  if s.seen mod s.every = 0 && s.len < s.cap then begin
    s.items <- x :: s.items;
    s.len <- s.len + 1
  end;
  s.seen <- s.seen + 1

let to_array s = Array.of_list (List.rev s.items)

(* Growable int buffer for fire times. *)
type ints = { mutable a : int array; mutable n : int; limit : int }

let ints limit = { a = Array.make 1024 0; n = 0; limit }

let push b x =
  if b.n < b.limit then begin
    if b.n = Array.length b.a then begin
      let a' = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a' 0 b.n;
      b.a <- a'
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1
  end

let contents b = Array.sub b.a 0 b.n

(* Counts engine events while running to [until], the way [Engine.run]
   would, recording fire times and sampling the queue population. *)
let run_counting engine ~until ~fires ~pop =
  let n = ref 0 in
  let rec loop () =
    match Engine.next_event_time engine with
    | Some t when t <= until ->
      if !n land 63 = 0 then push pop (Engine.pending_events engine);
      ignore (Engine.step engine);
      push fires t;
      incr n;
      loop ()
    | _ -> ()
  in
  loop ();
  Engine.run ~until engine;
  !n

let mean_int a =
  if Array.length a = 0 then 0.
  else float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)
