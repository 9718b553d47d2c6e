(* rt-line: three Strovl_rt.Host daemons in a line (0-1-2) on one Runtime in
   this process, with one session client socket; every datagram crosses
   the host's loopback interface. The daemons run the Node config that
   strovl_node builds by default. One round:

   - set-up: bind (fresh ports; a taken port retries with new ones),
     converge, open the sessions (timed);
   - closed loop: [closed_n] reliable packets 0 -> 2 with [window] in
     flight (timed: wall, CPU, runtime steps, datagrams);
   - paced: [paced_n] reliable packets at 5000/s, each timed from its due
     instant to its delivery at the client;
   - restart: 10 join/leave cycles at node 2, restart that daemon, re-join,
     then 20 multicast and 20 unicast best-effort packets.

   Every wait is bounded: a stall ends as counted failures, never a hang.
   The seed picks the packets' payload sizes and flow tags. *)

open Strovl_sim
module Rt = Strovl_rt
module W = Strovl.Wire
module S = Strovl.Wire.Session
module P = Strovl.Packet
module M = Measure

let window = 64
let closed_n = 10_000
let paced_n = 5_000
let paced_gap = Time.us 200
let restart_n = 20
let group = 77
let sport_tx = 8 (* unicast sender session at node 0 *)
let sport_rx = 9 (* receiver session at node 2 *)
let sport_mc = 10 (* multicast sender at node 0 *)

(* What the instrumented rounds of the traced run record: per-call times
   of the client socket, engine events (with fire times and queue
   population) and a sample of the datagrams the client exchanged. *)
type timing = {
  mutable on : bool;
  mutable tx_ns : float list;
  mutable rx_ns : float list;
  mutable events : int;
  fires : Layers.ints;
  pop : Layers.ints;
  dgrams : W.datagram Layers.sample;
}

let timing =
  {
    on = false;
    tx_ns = [];
    rx_ns = [];
    events = 0;
    fires = Layers.ints 400_000;
    pop = Layers.ints 100_000;
    dgrams = Layers.sample ~every:5 ~cap:20_000;
  }

(* ------------------------------- daemons ------------------------------- *)

(* The Node config strovl_node uses when given no flags. *)
let node_config =
  {
    Strovl.Node.default_config with
    Strovl.Node.hello_interval = Time.ms 100;
    hello_timeout = Time.ms 350;
    loss_aware_routing = false;
    probe = None;
    probe_routing = false;
  }

let port_rng = Random.State.make_self_init ()

let topo_with ports =
  match
    Rt.Topofile.parse
      (String.concat "\n"
         (List.mapi (fun i p -> Printf.sprintf "node %d 127.0.0.1:%d" i p) ports
         @ [ "link 0 1 5 1000"; "link 1 2 5 1000" ]))
  with
  | Ok t -> t
  | Error e -> failwith e

(* Binds the three daemons directly on candidate ports; a port already in
   use fails that bind and the whole set is retried with fresh ports, so no
   port is ever released and re-bound in between. *)
let rec bind_line rt attempts =
  let ports = List.init 3 (fun _ -> 20_000 + Random.State.int port_rng 40_000) in
  if List.length (List.sort_uniq compare ports) < 3 then bind_line rt attempts
  else begin
    let topo = topo_with ports in
    let made = ref [] in
    match
      List.iter
        (fun id -> made := Rt.Host.create ~config:node_config ~rt ~topo ~id () :: !made)
        [ 0; 1; 2 ]
    with
    | () -> (topo, Array.of_list (List.rev !made))
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when attempts > 1 ->
      List.iter Rt.Host.close !made;
      bind_line rt (attempts - 1)
  end

(* ------------------------------- client ------------------------------- *)

type stats = { rx : int; tx : int; fwd : int; bad : int; misdirected : int; node : int }

let int_field json key =
  let k = Printf.sprintf "\"%s\":" key in
  let kl = String.length k and n = String.length json in
  let rec find i =
    if i + kl > n then failwith ("stats: no field " ^ key)
    else if String.sub json i kl = k then i + kl
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < n && (json.[!stop] = '-' || (json.[!stop] >= '0' && json.[!stop] <= '9')) do
    incr stop
  done;
  int_of_string (String.sub json start (!stop - start))

type st = {
  rt : Rt.Runtime.t;
  topo : Rt.Topofile.t;
  mutable hosts : Rt.Host.t array;
  sock : Rt.Udp.t;
  uflow : P.flow;  (** the unicast flow, as delivered at node 2 *)
  mflow : P.flow;
  useen : int array;  (** deliveries per unicast seq *)
  uacc : int array;  (** accepted Sent verdicts per unicast seq *)
  urecv_us : int array;  (** client receive instant of each unicast seq *)
  mseen : int array;
  macc : int array;
  mutable refused : int;
  mutable wrong : int;  (** foreign flow or out-of-range deliveries *)
  mutable opened : (int * int) list;  (** (node, sport) acks *)
  stats : stats option array;
  mutable steps : int;
  mutable client_tx : int;  (** datagrams the client sent *)
  mutable client_rx : int;
}

let total_u = closed_n + paced_n + restart_n

let on_frame st = function
  | S.Open_ok { node; sport } -> st.opened <- (node, sport) :: st.opened
  | S.Sent { sport; seq; accepted } ->
    let arr = if sport = sport_mc then st.macc else st.uacc in
    if not accepted then st.refused <- st.refused + 1
    else if seq >= 0 && seq < Array.length arr then arr.(seq) <- arr.(seq) + 1
    else st.wrong <- st.wrong + 1
  | S.Deliver { sport; pkt; _ } ->
    let seq = pkt.P.seq in
    if sport <> sport_rx then st.wrong <- st.wrong + 1
    else if P.flow_compare pkt.P.flow st.uflow = 0 && seq >= 0 && seq < total_u then begin
      st.useen.(seq) <- st.useen.(seq) + 1;
      st.urecv_us.(seq) <- Rt.Clock.now_us ()
    end
    else if P.flow_compare pkt.P.flow st.mflow = 0 && seq >= 0 && seq < restart_n then
      st.mseen.(seq) <- st.mseen.(seq) + 1
    else st.wrong <- st.wrong + 1
  | S.Stats { json } ->
    let s =
      {
        node = int_field json "node";
        rx = int_field json "rx_datagrams";
        tx = int_field json "tx_datagrams";
        fwd = int_field json "forwarded";
        bad = int_field json "bad_datagrams";
        misdirected = int_field json "misdirected";
      }
    in
    if s.node >= 0 && s.node < 3 then st.stats.(s.node) <- Some s
  | S.Open _ | S.Join _ | S.Leave _ | S.Send _ | S.Stats_req _ | S.Close _ ->
    st.wrong <- st.wrong + 1

let rec drain st =
  let got =
    if timing.on then begin
      let t0 = M.now_ns () in
      let r = Rt.Udp.recvfrom st.sock in
      (match r with
      | Some _ -> timing.rx_ns <- Int64.to_float (Int64.sub (M.now_ns ()) t0) :: timing.rx_ns
      | None -> ());
      r
    end
    else Rt.Udp.recvfrom st.sock
  in
  match got with
  | None -> ()
  | Some (data, _) ->
    st.client_rx <- st.client_rx + 1;
    (match W.decode_datagram data with
    | Ok (W.Dg_session frame as d) ->
      if timing.on then begin
        Layers.offer timing.dgrams d;
        match frame with
        | S.Deliver { pkt; _ } ->
          (* the link datagram that carried it from node 1 to node 2 *)
          Layers.offer timing.dgrams
            (W.Dg_msg
               {
                 src = 1;
                 link = 1;
                 msg = Strovl.Msg.Data { cls = P.service_class pkt.P.service; lseq = pkt.P.seq; pkt; auth = None };
               })
        | _ -> ()
      end;
      on_frame st frame
    | Ok (W.Dg_msg _) | Error _ -> st.wrong <- st.wrong + 1);
    drain st

let tell st node frame =
  let data = W.encode_datagram (W.Dg_session frame) in
  let addr = Rt.Topofile.addr st.topo node in
  st.client_tx <- st.client_tx + 1;
  if timing.on then begin
    Layers.offer timing.dgrams (W.Dg_session frame);
    let t0 = M.now_ns () in
    ignore (Rt.Udp.sendto st.sock addr data);
    timing.tx_ns <- Int64.to_float (Int64.sub (M.now_ns ()) t0) :: timing.tx_ns
  end
  else ignore (Rt.Udp.sendto st.sock addr data)

let step st ~deadline =
  st.steps <- st.steps + 1;
  if timing.on then
    (* catch the engine up by hand, counting, before the runtime would *)
    timing.events <-
      timing.events
      + Layers.run_counting (Rt.Runtime.engine st.rt) ~until:(Rt.Clock.now_us ())
          ~fires:timing.fires ~pop:timing.pop;
  Rt.Runtime.step st.rt ~deadline

(* Drives the runtime until [cond] or [budget_ms] elapse; [true] on [cond]. *)
let wait st budget_ms cond =
  let deadline = Rt.Clock.now_us () + (budget_ms * 1000) in
  while (not (cond ())) && Rt.Clock.now_us () < deadline do
    step st ~deadline:(min deadline (Rt.Clock.now_us () + 10_000))
  done;
  cond ()

let idle st ms = ignore (wait st ms (fun () -> false))

let fetch_stats st =
  Array.fill st.stats 0 3 None;
  List.iter (fun n -> tell st n (S.Stats_req { what = 0 })) [ 0; 1; 2 ];
  if wait st 1000 (fun () -> Array.for_all Option.is_some st.stats) then
    Some (Array.map Option.get st.stats)
  else None

let send_u st ~seq ~bytes ~tag service dest =
  tell st 0
    (S.Send { sport = sport_tx; dest; dport = sport_rx; service; seq; bytes; tag })

(* Every node has applied a link-state update from every other node. *)
let converged st =
  Array.for_all
    (fun h ->
      let cg = Strovl.Node.conn (Rt.Host.node h) in
      List.for_all
        (fun o -> o = Rt.Host.id h || Strovl.Conn_graph.highest_seq cg o >= 0)
        [ 0; 1; 2 ])
    st.hosts

let opened st node sport = List.mem (node, sport) st.opened

(* ------------------------------- a round ------------------------------- *)

type round = {
  setup_s : float;
  wall_s : float;  (** closed loop *)
  cpu_s : float;
  user_s : float;
  sys_s : float;
  delivered : int;  (** closed loop *)
  steps : int;
  events : int;  (** engine events, instrumented rounds only *)
  dgrams_tx : int;  (** daemons, closed loop *)
  dgrams_rx : int;
  fwd : int;  (** daemons, closed loop *)
  retx : int;  (** reliable-link retransmissions, closed loop *)
  client_tx : int;
  client_rx : int;
  minor_words : float;
  lat_us : float array;  (** paced phase, one per delivered packet *)
  late_us : float array;  (** generator lateness per paced packet *)
  attempted : int;
  failed : int;
  mc_delivered : int;
}

let ops_per_round = total_u + restart_n

let retx_counter () =
  Strovl_obs.Metrics.find_counter ~labels:[ ("proto", "reliable") ]
    "strovl_link_retransmits_total"

let round rng =
  let t0 = M.now_s () in
  let rt = Rt.Runtime.create () in
  let topo, hosts = bind_line rt 20 in
  Array.iter Rt.Host.start hosts;
  let sock = Rt.Udp.bind ~host:"127.0.0.1" ~port:0 in
  (* The measuring client must not be where datagrams are lost: the paced
     phase's catch-up after a VM stall can burst hundreds of replies. *)
  Unix.setsockopt_int (Rt.Udp.fd sock) Unix.SO_RCVBUF (4 lsl 20);
  let mk_flow sport dest = { P.f_src = 0; f_sport = sport; f_dest = dest; f_dport = sport_rx } in
  let st =
    {
      rt;
      topo;
      hosts;
      sock;
      uflow = mk_flow sport_tx (P.To_node 2);
      mflow = mk_flow sport_mc (P.To_group group);
      useen = Array.make total_u 0;
      uacc = Array.make total_u 0;
      urecv_us = Array.make total_u 0;
      mseen = Array.make restart_n 0;
      macc = Array.make restart_n 0;
      refused = 0;
      wrong = 0;
      opened = [];
      stats = Array.make 3 None;
      steps = 0;
      client_tx = 0;
      client_rx = 0;
    }
  in
  Rt.Runtime.watch rt (Rt.Udp.fd sock) (fun () -> drain st);
  tell st 0 (S.Open { sport = sport_tx });
  tell st 2 (S.Open { sport = sport_rx });
  let ready =
    wait st 5000 (fun () -> opened st 0 sport_tx && opened st 2 sport_rx && converged st)
  in
  M.check ready "rt-line: overlay did not converge within 5 s";
  let setup_s = M.now_s () -. t0 in
  let bytes () = 64 + Rng.int rng 1337 in
  let tag = Printf.sprintf "t%d" (Rng.int rng 1000) in
  (* Closed loop. *)
  let s0 = fetch_stats st in
  Gc.full_major ();
  let steps0 = st.steps and ev0 = timing.events and ctx0 = st.client_tx and crx0 = st.client_rx in
  let retx0 = retx_counter () in
  let w0 = Gc.minor_words () and u0, y0 = M.cpu () and c0 = M.now_s () in
  let sent = ref 0 and done_ = ref 0 in
  let last_progress = ref (Rt.Clock.now_us ()) in
  while !done_ < closed_n && Rt.Clock.now_us () - !last_progress < 2_000_000 do
    while !sent < closed_n && !sent - !done_ < window do
      send_u st ~seq:!sent ~bytes:(bytes ()) ~tag P.Reliable (P.To_node 2);
      incr sent
    done;
    step st ~deadline:(Rt.Clock.now_us () + 10_000);
    let before = !done_ in
    while !done_ < !sent && st.useen.(!done_) > 0 do
      incr done_
    done;
    if !done_ > before then last_progress := Rt.Clock.now_us ()
  done;
  let wall_s = M.now_s () -. c0 in
  let u1, y1 = M.cpu () in
  let minor_words = Gc.minor_words () -. w0 in
  let steps = st.steps - steps0 and events = timing.events - ev0 in
  let client_tx = st.client_tx - ctx0 and client_rx = st.client_rx - crx0 in
  let retx = retx_counter () - retx0 in
  let delivered = Array.fold_left (fun a n -> if n > 0 then a + 1 else a) 0 (Array.sub st.useen 0 closed_n) in
  let s1 = fetch_stats st in
  let dg f =
    match (s0, s1) with
    | Some a, Some b -> Array.fold_left ( + ) 0 (Array.map2 (fun x y -> f y - f x) a b)
    | _ -> 0
  in
  let dgrams_tx = dg (fun s -> s.tx) and dgrams_rx = dg (fun s -> s.rx) in
  let fwd = dg (fun s -> s.fwd) in
  (* Paced phase: open loop, latency from each packet's due instant. *)
  let base = closed_n in
  let due = Array.make paced_n 0 and late = Array.make paced_n 0. in
  let start = Rt.Clock.now_us () + 1000 in
  let next = ref 0 in
  while !next < paced_n do
    let now = Rt.Clock.now_us () in
    while !next < paced_n && start + (!next * paced_gap) <= now do
      due.(!next) <- start + (!next * paced_gap);
      late.(!next) <- float_of_int (now - due.(!next));
      send_u st ~seq:(base + !next) ~bytes:(bytes ()) ~tag P.Reliable (P.To_node 2);
      incr next
    done;
    if !next < paced_n then step st ~deadline:(start + (!next * paced_gap))
  done;
  ignore
    (wait st 2000 (fun () ->
         let ok = ref true in
         for i = 0 to paced_n - 1 do
           if st.useen.(base + i) = 0 then ok := false
         done;
         !ok));
  let lat_us =
    Array.of_list
      (List.filter_map
         (fun i ->
           if st.useen.(base + i) > 0 then Some (float_of_int (st.urecv_us.(base + i) - due.(i)))
           else None)
         (List.init paced_n Fun.id))
  in
  (* Restart phase. *)
  for _ = 1 to 10 do
    tell st 2 (S.Join { group; sport = sport_rx });
    idle st 10;
    tell st 2 (S.Leave { group; sport = sport_rx });
    idle st 10
  done;
  idle st 100;
  let s_before = fetch_stats st in
  Rt.Host.close st.hosts.(2);
  let h2 = Rt.Host.create ~config:node_config ~rt ~topo ~id:2 () in
  Rt.Host.start h2;
  st.hosts.(2) <- h2;
  st.opened <- List.filter (fun (n, _) -> n <> 2) st.opened;
  tell st 2 (S.Open { sport = sport_rx });
  let reopened = wait st 2000 (fun () -> opened st 2 sport_rx) in
  M.check reopened "rt-line: restarted daemon did not answer Open";
  tell st 2 (S.Join { group; sport = sport_rx });
  idle st 200;
  let rbase = closed_n + paced_n in
  for i = 0 to restart_n - 1 do
    tell st 0
      (S.Send
         { sport = sport_mc; dest = P.To_group group; dport = sport_rx; service = P.Best_effort;
           seq = i; bytes = bytes (); tag });
    send_u st ~seq:(rbase + i) ~bytes:(bytes ()) ~tag P.Best_effort (P.To_node 2);
    idle st 1
  done;
  let count a lo n =
    let c = ref 0 in
    for i = lo to lo + n - 1 do
      if a.(i) > 0 then incr c
    done;
    !c
  in
  ignore (wait st 1000 (fun () -> count st.useen rbase restart_n = restart_n));
  ignore (wait st 200 (fun () -> count st.mseen 0 restart_n = restart_n));
  let s_after = fetch_stats st in
  (* Correctness. *)
  let dup = Array.fold_left (fun a n -> if n > 1 then a + 1 else a) 0 st.useen in
  let mdup = Array.fold_left (fun a n -> if n > 1 then a + 1 else a) 0 st.mseen in
  M.check (dup = 0 && mdup = 0) "rt-line: %d unicast and %d multicast duplicates" dup mdup;
  M.check (st.wrong = 0) "rt-line: %d foreign or misrouted frames" st.wrong;
  M.check (st.refused = 0) "rt-line: %d sends refused" st.refused;
  let unacked = Array.fold_left (fun a n -> if n <> 1 then a + 1 else a) 0 st.uacc in
  let munacked = Array.fold_left (fun a n -> if n <> 1 then a + 1 else a) 0 st.macc in
  M.check (unacked = 0 && munacked = 0) "rt-line: %d unicast, %d multicast sends without one Sent{accepted}"
    unacked munacked;
  List.iter
    (fun (label, s) ->
      match s with
      | None -> M.check false "rt-line: no Stats frames %s" label
      | Some a ->
        Array.iter
          (fun s ->
            M.check (s.bad = 0 && s.misdirected = 0) "rt-line: node %d reports %d bad, %d misdirected %s"
              s.node s.bad s.misdirected label)
          a)
    [ ("before the restart", s_before); ("at the end", s_after) ];
  let u_ok = count st.useen 0 total_u and m_ok = count st.mseen 0 restart_n in
  if u_ok < total_u then begin
    (* Lost deliveries are counted as failed; say where, with the kernel's
       drop counters for the four sockets. *)
    Printf.eprintf "perfbench: rt-line round lost unicast packets: closed %d, paced %d, restart %d\n%!"
      (closed_n - count st.useen 0 closed_n)
      (paced_n - count st.useen closed_n paced_n)
      (restart_n - count st.useen rbase restart_n);
    let ports = Rt.Udp.port sock :: List.map Rt.Host.port (Array.to_list st.hosts) in
    let hex = List.map (Printf.sprintf ":%04X ") ports in
    let contains l h =
      let n = String.length h in
      let rec at i = i + n <= String.length l && (String.sub l i n = h || at (i + 1)) in
      at 0
    in
    In_channel.with_open_text "/proc/net/udp" (fun ic ->
        List.iter
          (fun l -> if List.exists (contains l) hex then prerr_endline l)
          (In_channel.input_all ic |> String.split_on_char '\n'))
  end;
  Array.iter Rt.Host.close st.hosts;
  Rt.Runtime.unwatch rt (Rt.Udp.fd sock);
  Rt.Udp.close sock;
  {
    setup_s;
    wall_s;
    cpu_s = u1 -. u0 +. (y1 -. y0);
    user_s = u1 -. u0;
    sys_s = y1 -. y0;
    delivered;
    steps;
    events;
    dgrams_tx;
    dgrams_rx;
    fwd;
    retx;
    client_tx;
    client_rx;
    minor_words;
    lat_us;
    late_us = late;
    attempted = ops_per_round;
    failed = total_u - u_ok + (restart_n - m_ok);
    mc_delivered = m_ok;
  }

let latency_line rs =
  let lat = Array.concat (List.map (fun r -> r.lat_us) rs) in
  Array.sort compare lat;
  let n = Array.length lat in
  let late = Array.concat (List.map (fun r -> r.late_us) rs) in
  Array.sort compare late;
  let tail =
    match M.tail_quantile n with
    | Some (label, q) -> Printf.sprintf ", %s %.0f us" label (M.quantile_sorted lat q)
    | None -> ""
  in
  M.say "rt-line: paced latency p50 %.0f us%s over %d samples; generator lateness p50 %.0f us"
    (M.quantile_sorted lat 0.5) tail n (M.quantile_sorted late 0.5);
  (lat, late)

let summary rs =
  let med f = M.median (List.map f rs) in
  M.say "rt-line: %d rounds; rt_pps %.0f, rt_cpu_us_per_pkt %.2f (medians, closed loop)"
    (List.length rs)
    (med (fun r -> float_of_int r.delivered /. r.wall_s))
    (med (fun r -> r.cpu_s *. 1e6 /. float_of_int r.delivered));
  M.say "rt-line: restart phase delivered multicast %s of %d per round"
    (String.concat "," (List.map (fun r -> string_of_int r.mc_delivered) rs))
    restart_n;
  ignore (latency_line rs)

let result_of rs metrics =
  {
    M.correct = !M.problems = [];
    attempted = List.fold_left (fun a r -> a + r.attempted) 0 rs;
    failed = List.fold_left (fun a r -> a + r.failed) 0 rs;
    metrics;
  }

let run ~seed ~seconds =
  let rng = Rng.create (Int64.of_int seed) in
  let rs = M.rounds ~seconds (fun () -> round rng) in
  summary rs;
  let med f = M.median (List.map f rs) in
  result_of rs
    [
      M.m "setup_s" "s" (med (fun r -> r.setup_s));
      M.m "cpu_s" "s" (med (fun r -> r.cpu_s));
      M.m "heap_peak_mb" "MB" (M.first_round_heap_mb ());
    ]

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let median_ns l = if l = [] then 0. else M.median l

let run_traced ~seed ~seconds =
  let rng = Rng.create (Int64.of_int seed) in
  let plain = ref [] and recorded = ref [] and probed = ref [] in
  let majors = ref [] in
  let t0 = M.now_s () in
  while !plain = [] || M.now_s () -. t0 < seconds do
    let g0 = (Gc.quick_stat ()).Gc.major_collections in
    plain := round rng :: !plain;
    majors := float_of_int ((Gc.quick_stat ()).Gc.major_collections - g0) :: !majors;
    Strovl_obs.Trace.enable ();
    recorded := round rng :: !recorded;
    Strovl_obs.Trace.disable ();
    timing.on <- true;
    probed := round rng :: !probed;
    timing.on <- false
  done;
  let plain = List.rev !plain and recorded = List.rev !recorded and probed = List.rev !probed in
  let all = plain @ recorded @ probed in
  let per_pkt rs f = M.median (List.map (fun r -> f r /. float_of_int r.delivered) rs) in
  let measured = per_pkt plain (fun r -> r.wall_s *. 1e9) in
  let traced = per_pkt recorded (fun r -> r.wall_s *. 1e9) in
  let sum rs f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rs) in
  let delivered = sum probed (fun r -> r.delivered) in
  let events_per = sum probed (fun r -> r.events) /. delivered in
  let ns_event =
    Layers.engine_ns_per_event ~fire_times:(Layers.contents timing.fires)
      ~population:(int_of_float (Layers.mean_int (Layers.contents timing.pop)))
  in
  let pd = sum plain (fun r -> r.delivered) in
  let tx_per = sum plain (fun r -> r.dgrams_tx) /. pd
  and rx_per = sum plain (fun r -> r.dgrams_rx) /. pd in
  let sends_per = tx_per +. (sum plain (fun r -> r.client_tx) /. pd)
  and recvs_per = rx_per +. (sum plain (fun r -> r.client_rx) /. pd) in
  let sendto_ns = median_ns timing.tx_ns and recvfrom_ns = median_ns timing.rx_ns in
  let wire = Layers.wire (Layers.to_array timing.dgrams) in
  let enc = List.assoc "wire.encode_ns" wire and dec = List.assoc "wire.decode_ns" wire in
  let idle_us = per_pkt plain (fun r -> (r.wall_s -. r.cpu_s) *. 1e6) in
  let explained =
    (events_per *. ns_event)
    +. (sends_per *. (sendto_ns +. enc))
    +. (recvs_per *. (recvfrom_ns +. dec))
    +. (Float.max 0. idle_us *. 1e3)
  in
  let ctrl = sum plain (fun r -> r.dgrams_tx - r.fwd - r.client_rx) /. pd in
  let lat, late = latency_line plain in
  let n = Array.length lat in
  let tail =
    match M.tail_quantile n with Some (_, q) -> M.quantile_sorted lat q | None -> 0.
  in
  M.say "rt-line traced: %d plain, %d recorder, %d instrumented rounds" (List.length plain)
    (List.length recorded) (List.length probed);
  M.say
    "rt-line reconciliation (ns per delivered packet): measured %.0f = engine %.2f x %.0f + sendto %.2f x (%.0f + encode %.0f) + recvfrom %.2f x (%.0f + decode %.0f) + idle %.0f + unexplained %.0f"
    measured events_per ns_event sends_per sendto_ns enc recvs_per recvfrom_ns dec (idle_us *. 1e3)
    (measured -. explained);
  let layer =
    [
      ("engine.events_per_pkt", events_per);
      ("engine.ns_per_event", ns_event);
      ("lproto.reliable.ctrl_msgs_per_pkt", ctrl);
      ("lproto.reliable.retx_per_pkt", sum plain (fun r -> r.retx) /. pd);
      ("node.fwd_per_delivered", sum plain (fun r -> r.fwd) /. pd);
      ("udp.sendto_ns", sendto_ns);
      ("udp.recvfrom_ns", recvfrom_ns);
      ("rt.tx_dgrams_per_pkt", tx_per);
      ("rt.rx_dgrams_per_pkt", rx_per);
      ("rt.user_us_per_pkt", per_pkt plain (fun r -> r.user_s *. 1e6));
      ("rt.sys_us_per_pkt", per_pkt plain (fun r -> r.sys_s *. 1e6));
      ("rt.lat_p50_us", M.quantile_sorted lat 0.5);
      ("rt.lat_tail_us", tail);
      ("rt.gen_late_p50_us", M.quantile_sorted late 0.5);
      ("runtime.steps_per_pkt", per_pkt plain (fun r -> float_of_int r.steps));
      ("runtime.idle_us_per_pkt", idle_us);
      ("gc.minor_words_per_pkt", per_pkt plain (fun r -> r.minor_words));
      ("gc.major_collections", M.median !majors);
      ("obs.trace_ns_per_pkt", traced -. measured);
      ("recon.measured_ns_per_pkt", measured);
      ("recon.explained_ns_per_pkt", explained);
      ("recon.unexplained_ns_per_pkt", measured -. explained);
    ]
    @ wire @ Layers.crypto rng
  in
  result_of all (Layers.complete layer)
