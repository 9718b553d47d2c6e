(* sim-mixed: the simulator's data plane under a mixed load.

   Two best-effort unicast flows, one reliable flow and one multicast group,
   each sending every 200 us, on the 12-site US backbone and on a 50-node
   geometric topology. One round builds, starts and settles both overlays
   (set-up), then sends [count] packets per flow on each (timed), drains,
   and checks that every owed delivery happened exactly once. The seed
   picks each round's engine seed, payload sizes and source start phases. *)

open Strovl_sim
module P = Strovl.Packet
module Net = Strovl.Net
module Node = Strovl.Node
module Client = Strovl.Client
module Source = Strovl_apps.Source
module Msg = Strovl.Msg
module W = Strovl.Wire
module M = Measure

type scenario = {
  sc_name : string;
  spec : unit -> Strovl_topo.Gen.spec;
  pairs : (int * int) list;  (** best-effort unicast flows *)
  rel_pair : int * int;  (** reliable unicast flow *)
  mcast_src : int;
  members : int list;
}

let scenarios =
  [
    {
      sc_name = "us-backbone";
      spec = Strovl_topo.Gen.us_backbone;
      pairs = [ (0, 8); (3, 11) ];
      rel_pair = (1, 10);
      mcast_src = 0;
      members = [ 2; 6; 8; 10 ];
    };
    {
      sc_name = "geo-50";
      spec =
        (fun () ->
          Strovl_topo.Gen.random_geometric (Rng.create 4242L) ~n:50
            ~radius:0.24 ~nisps:3);
      pairs = [ (0, 43); (7, 31) ];
      rel_pair = (12, 48);
      mcast_src = 5;
      members = [ 9; 20; 33; 41; 47 ];
    };
  ]

let interval = Time.us 200
let count = 5_000 (* packets per flow per round: one virtual second *)
let group = 77

(* Deliveries seen by one receiving client, per sequence number. *)
type rx = {
  label : string;
  expect : P.flow;
  seen : int array;
  ordered : bool;
  mutable last : int;
  mutable wrong : int;  (** foreign flow or out-of-range seq *)
  mutable reordered : int;
}

let make_rx label expect ~ordered =
  { label; expect; seen = Array.make count 0; ordered; last = -1; wrong = 0; reordered = 0 }

let on_packet rx (pkt : P.t) =
  if P.flow_compare pkt.P.flow rx.expect <> 0 || pkt.P.seq < 0 || pkt.P.seq >= count
  then rx.wrong <- rx.wrong + 1
  else begin
    rx.seen.(pkt.P.seq) <- rx.seen.(pkt.P.seq) + 1;
    if rx.ordered && pkt.P.seq <> rx.last + 1 then rx.reordered <- rx.reordered + 1;
    rx.last <- pkt.P.seq
  end

type live = {
  sc : scenario;
  engine : Engine.t;
  net : Net.t;
  senders : (Client.sender * int) list;  (** sender, payload bytes *)
  rxs : rx list;
  phases : Time.t list;  (** per-sender start offset *)
}

let sum_nodes net f =
  let acc = ref 0 in
  for i = 0 to Net.nnodes net - 1 do
    acc := !acc + f (Node.counters (Net.node net i))
  done;
  !acc

let forwarded net = sum_nodes net (fun c -> c.Node.forwarded)
let delivered net = sum_nodes net (fun c -> c.Node.delivered)

(* Build, start and settle one overlay, attach the clients, and wait until
   every member's join has reached the multicast source: from then on every
   multicast packet is owed to every member. *)
let setup rng sc =
  let engine = Engine.create ~seed:(Rng.int64 rng) () in
  let net = Net.create engine (sc.spec ()) in
  Net.start net;
  Net.settle net;
  let node = Net.node net in
  let bytes () = 64 + Rng.int rng 1337 in
  let phase () = Rng.int rng interval in
  let unicast i (a, b) service ~ordered =
    let flow =
      { P.f_src = a; f_sport = 100 + i; f_dest = P.To_node b; f_dport = 200 + i }
    in
    let rx = make_rx (Printf.sprintf "%s %d->%d" sc.sc_name a b) flow ~ordered in
    let c = Client.attach (node b) ~port:(200 + i) in
    Client.set_receiver c (on_packet rx);
    let tx = Client.attach (node a) ~port:(100 + i) in
    (Client.sender tx ~service ~dest:(P.To_node b) ~dport:(200 + i) (), rx)
  in
  let be = List.mapi (fun i p -> unicast i p P.Best_effort ~ordered:false) sc.pairs in
  let rel = unicast 50 sc.rel_pair P.Reliable ~ordered:true in
  let mflow =
    { P.f_src = sc.mcast_src; f_sport = 160; f_dest = P.To_group group; f_dport = 260 }
  in
  let mrx =
    List.map
      (fun mnode ->
        let rx = make_rx (Printf.sprintf "%s mcast@%d" sc.sc_name mnode) mflow ~ordered:false in
        let c = Client.attach (node mnode) ~port:260 in
        Client.set_receiver c (on_packet rx);
        Client.join c ~group;
        rx)
      sc.members
  in
  let msender =
    Client.sender (Client.attach (node sc.mcast_src) ~port:160) ~dest:(P.To_group group)
      ~dport:260 ()
  in
  let want = List.sort compare sc.members in
  let joined () =
    Strovl.Group.member_nodes (Node.group (node sc.mcast_src)) ~group = want
  in
  let budget = ref 200 in
  while (not (joined ())) && !budget > 0 do
    decr budget;
    Engine.run ~until:(Time.add (Engine.now engine) (Time.ms 10)) engine
  done;
  M.check (joined ()) "%s: joins did not reach the multicast source" sc.sc_name;
  let senders = List.map (fun (s, _) -> (s, bytes ())) (be @ [ rel ]) @ [ (msender, bytes ()) ] in
  {
    sc;
    engine;
    net;
    senders;
    rxs = List.map snd be @ [ snd rel ] @ mrx;
    phases = List.map (fun _ -> phase ()) senders;
  }

(* Start every source at its phase and return the instant by which the last
   packet has been sent and has had time to arrive (paths are well under
   200 ms on both topologies). *)
let start_sources l =
  let t0 = Engine.now l.engine in
  List.iter2
    (fun (sender, bytes) ph ->
      ignore
        (Engine.schedule l.engine ~delay:ph (fun () ->
             ignore (Source.start ~count ~engine:l.engine ~sender ~interval ~bytes ()))))
    l.senders l.phases;
  Time.add t0 (Time.add (interval * count) (Time.ms 200))

(* After the drain: every owed delivery exactly once, nothing foreign, the
   reliable flow in order, and no drop counter moved on this loss-free
   underlay. Returns the number of owed deliveries that never arrived. *)
let verify l =
  let missing = ref 0 in
  List.iter
    (fun rx ->
      let dup = ref 0 in
      Array.iter (fun n -> if n = 0 then incr missing else if n > 1 then incr dup) rx.seen;
      M.check (!dup = 0) "%s: %d packets delivered more than once" rx.label !dup;
      M.check (rx.wrong = 0) "%s: %d foreign deliveries" rx.label rx.wrong;
      M.check (rx.reordered = 0) "%s: %d out-of-order deliveries" rx.label rx.reordered)
    l.rxs;
  List.iter
    (fun (s, _) ->
      M.check (Client.sent s = count) "%s: a source sent %d of %d" l.sc.sc_name (Client.sent s)
        count)
    l.senders;
  let drops name f =
    let n = sum_nodes l.net f in
    M.check (n = 0) "%s: %d %s drops" l.sc.sc_name n name
  in
  drops "no-route" (fun c -> c.Node.dropped_no_route);
  drops "ttl" (fun c -> c.Node.dropped_ttl);
  drops "duplicate" (fun c -> c.Node.dropped_dup);
  drops "overload" (fun c -> c.Node.dropped_overload);
  let owed = List.length l.rxs * count in
  M.check (delivered l.net = owed - !missing) "%s: nodes delivered %d, clients saw %d"
    l.sc.sc_name (delivered l.net) (owed - !missing);
  !missing

let owed_per_round =
  List.fold_left (fun acc sc -> acc + ((List.length sc.pairs + 1 + List.length sc.members) * count)) 0 scenarios

(* ------------------------------------------------------------------ *)
(* Untraced run                                                        *)
(* ------------------------------------------------------------------ *)

type round = {
  setup_s : float;
  wall_s : float;
  cpu_s : float;
  fwd : int;
  minor_words : float;
  missing : int;
}

(* One round over both overlays. [drive] runs the engine across the timed
   window (plain [Engine.run] untraced; instrumented in the traced run). *)
let round ?(drive = fun l ~until -> Engine.run ~until l.engine) ?(before = ignore)
    ?(after = ignore) rng =
  let t0 = M.now_s () in
  let lives = List.map (setup rng) scenarios in
  let setup_s = M.now_s () -. t0 in
  let wall = ref 0. and cpu = ref 0. and fwd = ref 0 and words = ref 0. in
  let missing = ref 0 in
  List.iter
    (fun l ->
      before l;
      Gc.full_major ();
      let f0 = forwarded l.net in
      let until = start_sources l in
      let w0 = Gc.minor_words () and c0 = M.cpu_total () and t0 = M.now_s () in
      drive l ~until;
      wall := !wall +. (M.now_s () -. t0);
      cpu := !cpu +. (M.cpu_total () -. c0);
      words := !words +. (Gc.minor_words () -. w0);
      fwd := !fwd + (forwarded l.net - f0);
      Engine.run ~until:(Time.add (Engine.now l.engine) (Time.sec 2)) l.engine;
      missing := !missing + verify l;
      after l)
    lives;
  { setup_s; wall_s = !wall; cpu_s = !cpu; fwd = !fwd; minor_words = !words; missing = !missing }

let summary rs =
  let med f = M.median (List.map f rs) in
  let fwd = med (fun r -> float_of_int r.fwd) in
  M.say "sim-mixed: %d rounds; per round %.0f forwards, %d owed deliveries" (List.length rs) fwd
    owed_per_round;
  M.say "sim-mixed: sim_fwd_pps %.0f (median over rounds)"
    (med (fun r -> float_of_int r.fwd /. r.wall_s));
  M.say "sim-mixed: cpu_us_per_fwd %.3f, minor_words_per_fwd %.1f"
    (med (fun r -> r.cpu_s *. 1e6 /. float_of_int r.fwd))
    (med (fun r -> r.minor_words /. float_of_int r.fwd))

let result_of rs metrics =
  let n = List.length rs in
  let missing = List.fold_left (fun a r -> a + r.missing) 0 rs in
  {
    M.correct = !M.problems = [];
    attempted = n * owed_per_round;
    failed = missing;
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

(* What the instrumented rounds record through the overlays' wire taps, the
   nodes' counters and a counting engine loop. *)
type probe = {
  fires : Layers.ints;  (** event fire times *)
  pop : Layers.ints;  (** sampled queue population *)
  mutable events : int;
  mutable p_fwd : int;
  mutable p_delivered : int;
  mutable transmits : int;
  mutable rel_ctrl : int;  (** reliable-class acks and nacks sent *)
  mutable rel_retx : int;
  mutable rel_delivered : int;
  mutable route_calls : int;
  mutable dedup_calls : int;
  msgs : W.datagram Layers.sample;
  decisions : (int * int * P.t) Layers.sample;  (** (scenario, node, packet) *)
  transmit_log : (int * int * int * int) Layers.sample;  (** (scenario, link, src, bytes) *)
  nets : Net.t option array;  (** the last instrumented overlay of each scenario *)
}

let rel_cls = P.service_class P.Reliable

let link_sent net =
  let g = Net.graph net and acc = ref 0 in
  for l = 0 to Strovl_topo.Graph.link_count g - 1 do
    acc := !acc + Strovl_net.Link.sent (Net.net_link net l)
  done;
  !acc

let retx_counter () =
  Strovl_obs.Metrics.find_counter ~labels:[ ("proto", "reliable") ]
    "strovl_link_retransmits_total"

let sc_index sc =
  let rec go i = function
    | [] -> 0
    | s :: rest -> if s.sc_name = sc.sc_name then i else go (i + 1) rest
  in
  go 0 scenarios

let decision pr si node (pkt : P.t) =
  match pkt.P.flow.P.f_dest with
  | P.To_node d ->
    if d <> node then begin
      pr.route_calls <- pr.route_calls + 1;
      Layers.offer pr.decisions (si, node, pkt)
    end
  | P.To_group _ | P.Any_of_group _ ->
    pr.route_calls <- pr.route_calls + 1;
    pr.dedup_calls <- pr.dedup_calls + 1;
    Layers.offer pr.decisions (si, node, pkt)

let instrumented pr =
  let marks = Hashtbl.create 2 in
  let before l =
    let si = sc_index l.sc in
    for node = 0 to Net.nnodes l.net - 1 do
      Net.set_wire_tap l.net ~node (fun ~dir ~link msg ->
          (match (dir, msg) with
          | `In, Msg.Data { pkt; _ } -> decision pr si node pkt
          | `Out, (Msg.Link_ack { cls; _ } | Msg.Link_nack { cls; _ }) when cls = rel_cls ->
            pr.rel_ctrl <- pr.rel_ctrl + 1
          | _ -> ());
          if dir = `Out then begin
            Layers.offer pr.msgs (W.Dg_msg { src = node; link; msg });
            Layers.offer pr.transmit_log (si, link, node, Msg.bytes msg)
          end;
          Net.Pass)
    done;
    Hashtbl.replace marks si
      (forwarded l.net, delivered l.net, link_sent l.net, retx_counter ())
  in
  let drive l ~until =
    pr.events <- pr.events + Layers.run_counting l.engine ~until ~fires:pr.fires ~pop:pr.pop
  in
  let after l =
    let si = sc_index l.sc in
    let f0, d0, s0, r0 = Hashtbl.find marks si in
    for node = 0 to Net.nnodes l.net - 1 do
      Net.clear_wire_tap l.net ~node
    done;
    pr.p_fwd <- pr.p_fwd + (forwarded l.net - f0);
    pr.p_delivered <- pr.p_delivered + (delivered l.net - d0);
    pr.transmits <- pr.transmits + (link_sent l.net - s0);
    pr.rel_retx <- pr.rel_retx + (retx_counter () - r0);
    (* originations are routing decisions too; the taps only see arrivals *)
    let unicast = List.length l.sc.pairs + 1 in
    pr.route_calls <- pr.route_calls + ((unicast + 1) * count);
    pr.dedup_calls <- pr.dedup_calls + count;
    pr.rel_delivered <- pr.rel_delivered + count;
    pr.nets.(si) <- Some l.net
  in
  (drive, before, after)

(* Link.send over the recorded (link, src, bytes) mix on fresh overlays, in
   blocks of 64 with the engine drained between blocks (untimed). *)
let underlay_ns log =
  let nets =
    Array.of_list (List.map (fun sc -> Net.create (Engine.create ()) (sc.spec ())) scenarios)
  in
  let n = Array.length log in
  if n = 0 then 0.
  else begin
    let total = ref 0. and calls = ref 0 in
    let i = ref 0 in
    while !i < n do
      let stop = min n (!i + 64) in
      let t0 = M.now_ns () in
      for j = !i to stop - 1 do
        let si, link, src, bytes = log.(j) in
        Strovl_net.Link.send (Net.net_link nets.(si) link) ~src ~bytes ~deliver:ignore
      done;
      total := !total +. Int64.to_float (Int64.sub (M.now_ns ()) t0);
      calls := !calls + (stop - !i);
      Array.iter (fun net -> Engine.run (Net.engine net)) nets;
      i := stop
    done;
    !total /. float_of_int !calls
  end

(* Dedup.seen over the recorded multicast decisions, one table per node;
   Route decisions over the recorded mix on the live overlays' routes. *)
let routing_ns pr =
  let ds = Layers.to_array pr.decisions in
  let multicast (_, _, (p : P.t)) =
    match p.P.flow.P.f_dest with P.To_node _ -> false | P.To_group _ | P.Any_of_group _ -> true
  in
  let mc = Array.of_list (List.filter multicast (Array.to_list ds)) in
  let dedup_ns =
    if Array.length mc = 0 then 0.
    else
      let best = ref infinity in
      for _ = 1 to 5 do
        let tables = Hashtbl.create 64 in
        let table k =
          match Hashtbl.find_opt tables k with
          | Some d -> d
          | None ->
            let d = Strovl.Dedup.create () in
            Hashtbl.replace tables k d;
            d
        in
        let t0 = M.now_ns () in
        Array.iter
          (fun (si, node, (p : P.t)) ->
            ignore (Strovl.Dedup.seen (table (si, node)) p.P.flow p.P.seq))
          mc;
        best :=
          Float.min !best
            (Int64.to_float (Int64.sub (M.now_ns ()) t0) /. float_of_int (Array.length mc))
      done;
      !best
  in
  let route_ns =
    if Array.length ds = 0 || Array.exists Option.is_none pr.nets then 0.
    else begin
      let n = Array.length ds in
      let nets = Array.map Option.get pr.nets in
      let sink = ref 0 in
      M.ns_per_call ~iters:(max n 50_000) (fun i ->
          let si, node, (p : P.t) = ds.(i mod n) in
          let r = Node.route (Net.node nets.(si) node) in
          match p.P.flow.P.f_dest with
          | P.To_node dst -> (
            match Strovl.Route.next_hop r ~dst with Some (_, l) -> sink := !sink + l | None -> ())
          | P.To_group g | P.Any_of_group g ->
            sink :=
              !sink + List.length (Strovl.Route.mcast_out_links r ~source:p.P.ingress ~group:g))
    end
  in
  (dedup_ns, route_ns)

let run_traced ~seed ~seconds =
  let rng = Rng.create (Int64.of_int seed) in
  let pr =
    {
      fires = Layers.ints 400_000;
      pop = Layers.ints 100_000;
      events = 0;
      p_fwd = 0;
      p_delivered = 0;
      transmits = 0;
      rel_ctrl = 0;
      rel_retx = 0;
      rel_delivered = 0;
      route_calls = 0;
      dedup_calls = 0;
      msgs = Layers.sample ~every:7 ~cap:20_000;
      decisions = Layers.sample ~every:3 ~cap:100_000;
      transmit_log = Layers.sample ~every:3 ~cap:100_000;
      nets = Array.make (List.length scenarios) None;
    }
  in
  let drive, before, after = instrumented pr in
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
    probed := round ~drive ~before ~after rng :: !probed
  done;
  let all = !plain @ !recorded @ !probed in
  let per_fwd rs f = M.median (List.map (fun r -> f r /. float_of_int r.fwd) rs) in
  let measured = per_fwd !plain (fun r -> r.wall_s *. 1e9) in
  let traced = per_fwd !recorded (fun r -> r.wall_s *. 1e9) in
  let fwd = float_of_int pr.p_fwd in
  let events_per = float_of_int pr.events /. fwd in
  let ns_event =
    Layers.engine_ns_per_event ~fire_times:(Layers.contents pr.fires)
      ~population:(int_of_float (Layers.mean_int (Layers.contents pr.pop)))
  in
  let transmits_per = float_of_int pr.transmits /. fwd in
  let ns_transmit = underlay_ns (Layers.to_array pr.transmit_log) in
  let dedup_ns, route_ns = routing_ns pr in
  let route_per = float_of_int pr.route_calls /. fwd
  and dedup_per = float_of_int pr.dedup_calls /. fwd in
  let explained =
    (events_per *. ns_event) +. (transmits_per *. ns_transmit) +. (route_per *. route_ns)
    +. (dedup_per *. dedup_ns)
  in
  M.say "sim-mixed traced: %d plain, %d recorder, %d instrumented rounds" (List.length !plain)
    (List.length !recorded) (List.length !probed);
  M.say
    "sim-mixed reconciliation (ns per forward): measured %.1f = engine %.2f x %.1f + underlay %.2f x %.1f + route %.2f x %.1f + dedup %.2f x %.1f + unexplained %.1f"
    measured events_per ns_event transmits_per ns_transmit route_per route_ns dedup_per dedup_ns
    (measured -. explained);
  let layer =
    [
      ("engine.events_per_pkt", events_per);
      ("engine.ns_per_event", ns_event);
      ("underlay.transmits_per_fwd", transmits_per);
      ("underlay.ns_per_transmit", ns_transmit);
      ("lproto.reliable.ctrl_msgs_per_pkt", float_of_int pr.rel_ctrl /. float_of_int pr.rel_delivered);
      ("lproto.reliable.retx_per_pkt", float_of_int pr.rel_retx /. float_of_int pr.rel_delivered);
      ("node.fwd_per_delivered", fwd /. float_of_int pr.p_delivered);
      ("dedup.ns_per_seen", dedup_ns);
      ("route.ns_per_next_hop", route_ns);
      ("gc.minor_words_per_pkt", per_fwd !plain (fun r -> r.minor_words));
      ("gc.major_collections", M.median !majors);
      ("obs.trace_ns_per_pkt", traced -. measured);
      ("recon.measured_ns_per_pkt", measured);
      ("recon.explained_ns_per_pkt", explained);
      ("recon.unexplained_ns_per_pkt", measured -. explained);
    ]
    @ Layers.wire (Layers.to_array pr.msgs)
    @ Layers.crypto rng
  in
  result_of all (Layers.complete layer)
