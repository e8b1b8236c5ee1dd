(* Worlds, questions and the set-up phase shared by the workloads. *)

module Sc = Workload.Scenario

type cfg = {
  seed : int;
  seconds : float;  (** sizes the untraced drive's work (see [Bench.workload]) *)
  trace : bool;
  tmpdir : string;  (** private temporary directory (journal stores) *)
  tiny : bool;  (** test scale: smallest worlds, fixed tiny drives *)
  corrupt : bool;
      (** self-check of the output checks: perturb one expected answer
          so a correct run must be reported incorrect *)
}

(* One verification question: asked at access point [pt] by a host of
   tenant [client] whose address is [ip]. *)
type question = {
  pt : Rvaas.Verifier.endpoint;
  scope : Hspace.Hs.t;
  ip : int;
  client : int;
}

let query_of q = Rvaas.Query.make ~scope:q.scope Rvaas.Query.Reachable_endpoints

let sim_now (s : Sc.t) = Netsim.Sim.now (Netsim.Net.sim s.net)

(* Every Scenario.run slice is a span: the simulator's busy time. *)
let run_until (s : Sc.t) until = Trace.with_span "netsim.run" (fun () -> Sc.run s ~until)

let host_info (s : Sc.t) host = Option.get (Sdnctl.Addressing.host s.addressing ~host)

let access_points (s : Sc.t) =
  Array.of_list (Rvaas.Verifier.access_points (Netsim.Net.topology s.net))

(* The (switch, port) injection points of every access point. *)
let injection_points (s : Sc.t) =
  Array.to_list (Array.map (fun (p : Rvaas.Verifier.endpoint) -> (p.sw, p.port)) (access_points s))

let subnet_cube (s : Sc.t) client =
  let value, prefix_len = Sdnctl.Addressing.subnet s.addressing ~client in
  Hspace.Field.set_prefix
    (Hspace.Tern.all_x Hspace.Field.total_width)
    Hspace.Field.Ip_dst ~value ~prefix_len

let peer_ips (s : Sc.t) points (pt : Rvaas.Verifier.endpoint) =
  let i = host_info s pt.host in
  Array.of_list
    (List.filter_map
       (fun (q : Rvaas.Verifier.endpoint) ->
         let j = host_info s q.host in
         if q.host <> pt.host && j.client = i.client then Some j.ip else None)
       (Array.to_list points))

(* The E20 scope-width mix: Zipf(1) over three width classes — 6/11
   broad (all IP traffic), 3/11 mid (the tenant's subnet at one exact
   destination port), 2/11 narrow (one same-tenant peer at one exact
   port).  With ports drawn per question, mid and narrow questions
   overlap the broad one at their point far more often than they
   repeat each other.  [at] indexes {!access_points}. *)
let scope_mix (s : Sc.t) =
  let points = access_points s in
  let peers = Array.map (peer_ips s points) points in
  let w = Hspace.Field.total_width in
  fun rng ~at:k ~klass ~port ->
    let pt = points.(k) in
    let i = host_info s pt.host in
    let scope =
      match klass with
      | `Broad -> Rvaas.Verifier.ip_traffic_hs ()
      | `Mid ->
        Hspace.Hs.of_cube
          (Hspace.Field.set_exact (subnet_cube s i.client) Hspace.Field.Tp_dst port)
      | `Narrow ->
        let dst =
          if Array.length peers.(k) = 0 then i.ip else Support.Rng.pick_array rng peers.(k)
        in
        Hspace.Hs.of_cube
          (Hspace.Field.set_exact
             (Hspace.Field.set_exact
                (Hspace.Field.set_exact (Hspace.Tern.all_x w) Hspace.Field.Eth_type
                   Hspace.Header.eth_type_ip)
                Hspace.Field.Ip_dst dst)
             Hspace.Field.Tp_dst port)
    in
    { pt; scope; ip = i.ip; client = i.client }

let zipf_class rng =
  let u = Support.Rng.float rng 1.0 in
  if u < 6.0 /. 11.0 then `Broad else if u < 9.0 /. 11.0 then `Mid else `Narrow

(* The fingerprint per-query evaluation gives a question: the sorted
   (switch, port) set of the endpoints the in-band round would probe —
   what a delivered answer must report. *)
let expected_fingerprint svc q =
  let _, probes =
    Rvaas.Service.evaluate svc ~client:q.client ~sw:q.pt.sw ~port:q.pt.port (query_of q)
  in
  Util.endpoint_fingerprint
    (List.map (fun (ep : Rvaas.Verifier.endpoint) -> (ep.sw, ep.port)) probes)

let answer_fingerprint (a : Rvaas.Query.answer) =
  Util.endpoint_fingerprint
    (List.map (fun (ep : Rvaas.Query.endpoint_report) -> (ep.sw, ep.port)) a.endpoints)

(* Memoised per-query evaluation: identical questions (same point, same
   scope) share one expected fingerprint. *)
let expectation svc =
  let memo = Hashtbl.create 1024 in
  fun q ->
    let key = (q.pt.sw, q.pt.port, Hspace.Hs.hash q.scope) in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt memo key) in
    match List.find_opt (fun (scope, _) -> Hspace.Hs.equal scope q.scope) bucket with
    | Some (_, fp) -> fp
    | None ->
      let fp = expected_fingerprint svc q in
      Hashtbl.replace memo key ((q.scope, fp) :: bucket);
      fp

(* Link delays drawn per link from [seed] (0.5-1.5x the generator's):
   real links are not uniform, and the spread keeps simulated answer
   latencies from collapsing onto a handful of values. *)
let jitter_links ~seed base =
  let rng = Support.Rng.create ((seed * 31) + 5) in
  let t = Netsim.Topology.create () in
  List.iter (Netsim.Topology.add_switch t) (Netsim.Topology.switches base);
  List.iter (Netsim.Topology.add_host t) (Netsim.Topology.hosts base);
  List.iter
    (fun (l : Netsim.Topology.link) ->
      Netsim.Topology.connect t l.a l.b ~delay:(l.delay *. (0.5 +. Support.Rng.float rng 1.0)))
    (Netsim.Topology.links base);
  t

(* ---- set-up ---------------------------------------------------------- *)

type setup = {
  scenario : Sc.t;
  topogen_s : float;
  build_s : float;
  settle_s : float;
  total_s : float;
}

(* Run until the first stats poll has converged: a poll was sent, none
   is outstanding, and the believed view equals every switch's real
   table.  Then compile the plumbing sources of every access point, so
   the drive measures steady-state serving rather than a cold graph. *)
let settle (s : Sc.t) ~step =
  let deadline = sim_now s +. 600.0 in
  let rec loop () =
    let m = Sc.monitor s in
    let converged =
      Rvaas.Monitor.polls_sent m > 0
      && Rvaas.Monitor.outstanding_polls m = 0
      && Rvaas.Snapshot.divergence (Rvaas.Monitor.snapshot m) ~actual:(Sc.actual_flows s) = 0
    in
    if not converged then begin
      if sim_now s >= deadline then failwith "set-up: the first poll never converged";
      run_until s (sim_now s +. step);
      loop ()
    end
  in
  loop ();
  match Rvaas.Service.plumbing (Sc.service s) with
  | None -> ()
  | Some pl ->
    Rvaas.Plumbing.warm ~pool:(Support.Pool.global ()) pl ~points:(injection_points s)

let setup ~topo ~spec ~step =
  let t0 = Util.now_s () in
  let topo, topogen_s = Trace.with_span "workload.topogen" (fun () -> Util.time topo) in
  let scenario, build_s =
    Trace.with_span "workload.build" (fun () -> Util.time (fun () -> Sc.build (spec topo)))
  in
  let (), settle_s =
    Trace.with_span "workload.settle" (fun () -> Util.time (fun () -> settle scenario ~step))
  in
  { scenario; topogen_s; build_s; settle_s; total_s = Util.now_s () -. t0 }

(* Set up [n] times, each anew, and keep the last world; the
   reported set-up time is the median, scaled to the steady reference
   host (the unscaled median comes second).  [before] runs ahead of each
   attempt (untimed) to free what the previous one held. *)
let setup_repeated ~n ~before mk =
  let times = ref [] and raw = ref [] and last = ref None in
  for _ = 1 to n do
    last := None;
    Gc.compact ();
    before ();
    let r0 = Util.reference_s () in
    let st = mk () in
    let r1 = Util.reference_s () in
    times := (st.total_s *. Util.scale ((r0 +. r1) /. 2.0)) :: !times;
    raw := st.total_s :: !raw;
    last := Some st
  done;
  (Option.get !last, Util.median !times, Util.median !raw)

(* ---- layer counters --------------------------------------------------- *)

(* Counts read from public hooks during the drive: Flow-Mods applied
   to the switches' real tables, and monitor observations. *)
type hooks = {
  mutable flow_mods : int;
  mutable observations : int;
  mutable observations_changed : int;
  touched : (int, unit) Hashtbl.t;  (** switches whose believed table changed *)
  mutable armed : bool;
}

let install_hooks (s : Sc.t) =
  let h =
    {
      flow_mods = 0;
      observations = 0;
      observations_changed = 0;
      touched = Hashtbl.create 64;
      armed = false;
    }
  in
  List.iter
    (fun sw ->
      Ofproto.Flow_table.on_change (Netsim.Net.table s.net ~sw) (fun _ ->
          if h.armed then h.flow_mods <- h.flow_mods + 1))
    (Netsim.Topology.switches (Netsim.Net.topology s.net));
  Rvaas.Monitor.on_snapshot_change (Sc.monitor s) (fun ~sw ~changed ->
      if h.armed then begin
        h.observations <- h.observations + 1;
        if changed then begin
          h.observations_changed <- h.observations_changed + 1;
          Hashtbl.replace h.touched sw ()
        end
      end);
  h

(* Snapshot of every counter the per-layer report takes deltas of (the
   library's stats records are mutable, so they are copied). *)
type counters = {
  c_events : int;
  c_polls : int;
  c_events_seen : int;
  c_plumbing : Rvaas.Plumbing.stats option;
  c_frontend : Rvaas.Frontend.stats;
  c_service : Rvaas.Service.stats;
  c_gc : Util.gc_mark;
}

let counters (s : Sc.t) =
  let m = Sc.monitor s and svc = Sc.service s in
  let fe = Rvaas.Service.frontend_stats svc and st = Rvaas.Service.stats svc in
  {
    c_events = Netsim.Sim.executed (Netsim.Net.sim s.net);
    c_polls = Rvaas.Monitor.polls_sent m;
    c_events_seen = Rvaas.Monitor.events_seen m;
    c_plumbing =
      Option.map
        (fun pl ->
          let p = Rvaas.Plumbing.stats pl in
          { p with updates = p.updates })
        (Rvaas.Service.plumbing svc);
    c_frontend = { fe with admitted = fe.admitted };
    c_service = { st with answers_sent = st.answers_sent };
    c_gc = Util.gc_mark ();
  }

(* ---- parity oracle ---------------------------------------------------- *)

(* Full verdict agreement between the serving engine and the sweep
   oracle: endpoints, arrival spaces, traversal and controller hits. *)
let agree (a : Rvaas.Verifier.reach_result) (b : Rvaas.Verifier.reach_result) =
  let same xs ys =
    List.map fst xs = List.map fst ys
    && List.for_all2 (fun (_, x) (_, y) -> Hspace.Hs.equal x y) xs ys
  in
  same a.endpoints b.endpoints
  && a.traversed = b.traversed
  && same a.controller_hits b.controller_hits

(* The drive's clock: wall time minus the time set aside for output
   checks and reference timings made inside the drive, so these cost
   neither the drive's units nor the latencies of the queries in
   flight. *)
type clock = { mutable aside : float }

let clock () = { aside = 0.0 }

let now c = Util.now_s () -. c.aside

let aside c f =
  let t0 = Util.now_s () in
  let r = f () in
  c.aside <- c.aside +. (Util.now_s () -. t0);
  r

(* Compare the live service's verdict with a {!Rvaas.Verifier.reach}
   sweep of the same believed view for every (point, scope) pair;
   returns (checked, mismatches).  The live [Service.reach] is serving
   work — it flushes and re-derives what the next query would — so it
   runs on [clock]; only the sweep is set aside.  [corrupt] perturbs
   the first expected verdict, so the check must report a mismatch. *)
let oracle_check ?(corrupt = false) ~clock (s : Sc.t) pairs =
  let first = ref corrupt in
  let snapshot = Rvaas.Monitor.snapshot (Sc.monitor s) in
  let flows_of sw = Rvaas.Snapshot.flows snapshot ~sw in
  let topo = Netsim.Net.topology s.net in
  let svc = Sc.service s in
  let mismatches =
    List.fold_left
      (fun acc ((pt : Rvaas.Verifier.endpoint), hs) ->
        let live = Rvaas.Service.reach svc ~src_sw:pt.sw ~src_port:pt.port ~hs in
        let sweep =
          aside clock (fun () ->
              Trace.with_span "verifier.sweep_reach" (fun () ->
                  Rvaas.Verifier.reach ~flows_of topo ~src_sw:pt.sw ~src_port:pt.port ~hs))
        in
        (* [corrupt]: a wrong expected verdict — the first sweep loses
           an endpoint (or gains a controller hit) *)
        let sweep =
          if not !first then sweep
          else begin
            first := false;
            match sweep.endpoints with
            | _ :: rest -> { sweep with endpoints = rest }
            | [] -> { sweep with controller_hits = (-1, hs) :: sweep.controller_hits }
          end
        in
        if agree live sweep then acc else acc + 1)
      0 pairs
  in
  (List.length pairs, mismatches)

(* ---- what a drive leaves behind --------------------------------------- *)

(* Inputs captured from the run for the replay kernels (each capped). *)
type capture = {
  catalogue : question list;  (** distinct questions asked *)
  sequence : question list;  (** questions in submission order *)
  answers : Rvaas.Query.answer list;  (** decoded delivered answers *)
  challenges : string list;  (** auth challenges the hosts received *)
  journalled : (string * question) list;
      (** (nonce, question) of the queries the run journal records on
          workloads without a live journal *)
}

(* One unit of a drive's work: a storm round, 100 distinct answers, a
   churn-soak sampling interval.  [seg_from] and [seg_to] bound it on
   the drive's clock, [seg_wall] is their difference, and [seg_ref] is
   the reference computation's time around it (the mean of the timings
   at its two ends, see {!Util.reference_s}). *)
type segment = {
  seg_from : float;
  seg_to : float;
  seg_wall : float;
  seg_sim : float;
  seg_ref : float;
}

let segment ~from ~upto ~sim ~refs:(r0, r1) =
  { seg_from = from; seg_to = upto; seg_wall = upto -. from; seg_sim = sim; seg_ref = (r0 +. r1) /. 2.0 }

(* Time the reference computation off the drive's clock. *)
let reference (c : clock) = aside c Util.reference_s

type drive = {
  wall_s : float;  (** serving wall time on the drive's clock *)
  sim_s : float;  (** simulated seconds covered *)
  segments : segment list;
  attempted : int;
  failed : int;  (** missing, or late past the drain deadline *)
  answered : int;
  wall_lat : (float * float) list;
      (** (answered at, on the drive's clock; wall latency ms) per answer *)
  sim_lat_ms : float list;
  checks : (string * int * int) list;  (** (check, checked, mismatches) *)
  aside_lookups : int * int * int;
      (** plumbing (lookups, scoped lookups, fallback sweeps) made by
          output checks inside the drive, off its clock *)
  churn_planned : int;
  churn_executed : int;
  input : (string * Util.json) list;  (** generated input size *)
  capture : capture;
}

let take n xs = List.filteri (fun i _ -> i < n) xs

(* Distinct questions of a sequence, first occurrence order. *)
let distinct qs =
  let seen = Hashtbl.create 1024 in
  List.filter
    (fun q ->
      let key = (q.pt.sw, q.pt.port, Hspace.Hs.hash q.scope) in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt seen key) in
      if List.exists (Hspace.Hs.equal q.scope) bucket then false
      else begin
        Hashtbl.replace seen key (q.scope :: bucket);
        true
      end)
    qs

let world_input (s : Sc.t) =
  let topo = Netsim.Net.topology s.net in
  [
    ("switches", Util.Int (Workload.Topogen.switch_count topo));
    ("access_points", Util.Int (Array.length (access_points s)));
    ("provider_rules", Util.Int (Sdnctl.Provider.rule_count s.provider));
    ("believed_rules", Util.Int (Rvaas.Snapshot.total_flows (Rvaas.Monitor.snapshot (Sc.monitor s))));
    ("addresses", Util.Int (Sc.address_count s));
  ]

(* ---- the per-query ledger of a drive ----------------------------------- *)

let pending = 0

let answered_ok = 1

let missing = 2

type ledger = {
  clock : clock;
  questions : question Util.Vec.t;
  sent_sim : float Util.Vec.t;  (** when the query was due (simulated) *)
  sent_wall : float Util.Vec.t;
  ans_sim : float Util.Vec.t;
  ans_wall : float Util.Vec.t;
  got : int Util.Vec.t;  (** fingerprint of the delivered answer *)
  state : int Util.Vec.t;  (** [pending], [answered_ok] or [missing] *)
  mutable answered : int;
  mutable n_missing : int;
  mutable unmatched : int;  (** answers twice, late, or for no query *)
  mutable kept : Rvaas.Query.answer list;  (** the first 2000, newest first *)
  mutable n_kept : int;
}

let ledger () =
  let dummy =
    {
      pt = { Rvaas.Verifier.host = 0; sw = 0; port = 0 };
      scope = Rvaas.Verifier.ip_traffic_hs ();
      ip = 0;
      client = 0;
    }
  in
  {
    clock = clock ();
    questions = Util.Vec.create dummy;
    sent_sim = Util.Vec.create 0.0;
    sent_wall = Util.Vec.create 0.0;
    ans_sim = Util.Vec.create 0.0;
    ans_wall = Util.Vec.create 0.0;
    got = Util.Vec.create 0;
    state = Util.Vec.create pending;
    answered = 0;
    n_missing = 0;
    unmatched = 0;
    kept = [];
    n_kept = 0;
  }

let issued l = Util.Vec.length l.questions

(* [record l q ~due] opens a query due at simulated time [due]; its wall
   send time is stamped by {!sent}.  Returns the query id. *)
let record l q ~due =
  let qid = issued l in
  Util.Vec.push l.questions q;
  Util.Vec.push l.sent_sim due;
  Util.Vec.push l.sent_wall (now l.clock);
  Util.Vec.push l.ans_sim 0.0;
  Util.Vec.push l.ans_wall 0.0;
  Util.Vec.push l.got 0;
  Util.Vec.push l.state pending;
  qid

let sent l qid = Util.Vec.set l.sent_wall qid (now l.clock)

(* An answer for [qid] arrived at simulated time [at]. *)
let deliver l qid ~at (a : Rvaas.Query.answer) =
  if qid >= 0 && qid < issued l && Util.Vec.get l.state qid = pending then begin
    Trace.tag qid;
    Util.Vec.set l.state qid answered_ok;
    Util.Vec.set l.ans_sim qid at;
    Util.Vec.set l.ans_wall qid (now l.clock);
    Util.Vec.set l.got qid (answer_fingerprint a);
    l.answered <- l.answered + 1;
    if l.n_kept < 2000 then begin
      l.kept <- a :: l.kept;
      l.n_kept <- l.n_kept + 1
    end
  end
  else l.unmatched <- l.unmatched + 1

(* Queries still pending from [first] on are missing from now on. *)
let close_pending l ~first =
  for qid = first to issued l - 1 do
    if Util.Vec.get l.state qid = pending then begin
      Util.Vec.set l.state qid missing;
      l.n_missing <- l.n_missing + 1
    end
  done

(* ((answered at, wall ms), simulated ms) latency of every answered
   query. *)
let latencies l =
  let wall = ref [] and sim = ref [] in
  Util.Vec.iteri
    (fun qid st ->
      if st = answered_ok then begin
        let at = Util.Vec.get l.ans_wall qid in
        wall := (at, 1000.0 *. (at -. Util.Vec.get l.sent_wall qid)) :: !wall;
        sim := (1000.0 *. (Util.Vec.get l.ans_sim qid -. Util.Vec.get l.sent_sim qid)) :: !sim
      end)
    l.state;
  (!wall, !sim)

(* The output check of the query workloads: every delivered answer
   against per-query evaluation of the same question.  [corrupt]
   perturbs the first expected answer.  Returns (checked, mismatches). *)
let parity l svc ~corrupt =
  let expect = expectation svc in
  let checked = ref 0 and mismatches = ref 0 in
  Util.Vec.iteri
    (fun qid q ->
      if Util.Vec.get l.state qid = answered_ok then begin
        incr checked;
        let fp = expect q in
        let fp = if corrupt && !checked = 1 then fp lxor 1 else fp in
        if fp <> Util.Vec.get l.got qid then incr mismatches
      end)
    l.questions;
  (!checked, !mismatches)
