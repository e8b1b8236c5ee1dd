(* query-storm: a quiet fat-tree under an open-loop flash crowd.

   Why: most queries share a computation, so the front-end, answer
   fan-out signing and simulator delivery do the work while monitor,
   snapshot and plumbing updates do almost none.  Arrivals are
   scheduled in simulated time, so how much the front-end shares is
   fixed by the seed, not by machine speed. *)

open World

(* Poisson arrivals of many logical clients, in simulated time. *)
let rate ~tiny = if tiny then 2_000.0 else 100_000.0

(* Arrivals are generated per round of this simulated length; the
   network drains between rounds so each round is self-contained.  The
   world is quiet: a drive covers about a simulated second (66 rounds
   of ~20 ms), so with 1 s polling one or two rounds hold a poll sweep
   and the others do equal work. *)
let round_sim = 0.01

let drain_sim = 1.0

let topo ~tiny ~seed () =
  jitter_links ~seed
    (Workload.Topogen.fat_tree
       { Workload.Topogen.default_params with hosts_per_switch = (if tiny then 1 else 3) }
       ~k:(if tiny then 4 else 6))

(* The serving configuration ROADMAP item 3 keeps: the compiled engine
   behind a subsuming front-end with a 5 ms settle tick.  Polls are
   periodic: every poll sweep re-ingests every switch, and randomized
   (exponential) gaps would make the number of sweeps in a run — and
   with it the run's wall time — a Poisson draw of the seed. *)
let spec ~seed topo =
  {
    (Sc.default_spec topo) with
    seed;
    polling = Rvaas.Monitor.Periodic 1.0;
    engine = `Compiled;
    frontend = Rvaas.Frontend.coalescing ~batch_window:0.005 ~subsume:true ();
  }

let setup (cfg : cfg) () = World.setup ~topo:(topo ~tiny:cfg.tiny ~seed:cfg.seed) ~spec:(spec ~seed:cfg.seed) ~step:0.01

let nonce_of qid = "q" ^ string_of_int qid

let qid_of_nonce n =
  if String.length n > 1 && n.[0] = 'q' then
    int_of_string_opt (String.sub n 1 (String.length n - 1))
  else None

let drive (cfg : cfg) (st : setup) ~units =
  let s = st.scenario in
  let svc = Sc.service s in
  let sim = Netsim.Net.sim s.net in
  let rng = Support.Rng.create ((cfg.seed * 7919) + 17) in
  let mix = scope_mix s in
  let n_points = Array.length (access_points s) in
  let service_public = Rvaas.Service.public svc in
  let l = ledger () in
  let undecodable = ref 0 in
  let challenges = ref [] and n_challenges = ref 0 in
  (* The benchmark's host receivers: verify and record every answer,
     and answer every auth challenge so the full in-band round runs. *)
  List.iter
    (fun host ->
      let info = host_info s host in
      let key = Option.get (Rvaas.Directory.key s.directory ~client:info.client) in
      Netsim.Net.set_host_receiver s.net ~host (fun (pkt : Netsim.Packet.t) ->
          Trace.with_span "client.receive" (fun () ->
              let dst_port = Hspace.Header.get pkt.header Hspace.Field.Tp_dst in
              if dst_port = Rvaas.Wire.answer_port then
                match Rvaas.Codec.decode_answer pkt.payload ~service_public with
                | Error _ -> incr undecodable
                | Ok a ->
                  deliver l
                    (Option.value ~default:(-1) (qid_of_nonce a.nonce))
                    ~at:(Netsim.Sim.now sim) a
              else if dst_port = Rvaas.Wire.auth_request_port then
                match Rvaas.Codec.decode_auth_request pkt.payload ~service_public with
                | Error _ -> incr undecodable
                | Ok challenge ->
                  if !n_challenges < 5000 then begin
                    challenges := challenge :: !challenges;
                    incr n_challenges
                  end;
                  let reply = Rvaas.Codec.encode_auth_reply ~client:info.client ~challenge ~key in
                  let header =
                    Hspace.Header.udp ~src_ip:info.ip ~dst_ip:Rvaas.Wire.service_ip ~src_port:0
                      ~dst_port:Rvaas.Wire.auth_reply_port
                  in
                  Netsim.Net.host_send s.net ~host (Netsim.Packet.make ~header reply))))
    (Netsim.Topology.hosts (Netsim.Net.topology s.net));
  let rate = rate ~tiny:cfg.tiny in
  let round () =
    let t0 = sim_now s in
    let first = issued l in
    let t = ref (t0 +. Support.Rng.exponential rng ~mean:(1.0 /. rate)) in
    while !t < t0 +. round_sim do
      let at = Support.Rng.int rng n_points in
      let q = mix rng ~at ~klass:(zipf_class rng) ~port:(Support.Rng.int rng 65536) in
      (* one logical client per query *)
      let q = { q with client = 1000 + issued l } in
      let qid = record l q ~due:!t in
      Netsim.Sim.schedule_at sim ~time:!t (fun () ->
          Trace.with_span ~qid "frontend.inject" (fun () ->
              sent l qid;
              Rvaas.Service.inject_query svc ~client:q.client ~nonce:(nonce_of qid) ~sw:q.pt.sw
                ~port:q.pt.port ~ip:q.ip (query_of q)));
      t := !t +. Support.Rng.exponential rng ~mean:(1.0 /. rate)
    done;
    let round_end = t0 +. round_sim in
    while sim_now s < round_end do
      run_until s (Float.min round_end (sim_now s +. 0.05))
    done;
    let deadline = round_end +. drain_sim in
    while l.answered + l.n_missing < issued l && sim_now s < deadline do
      run_until s (sim_now s +. 0.01)
    done;
    close_pending l ~first
  in
  let sim0 = sim_now s in
  let segments = ref [] and wall_s = ref 0.0 in
  let r0 = ref (reference l.clock) in
  for _ = 1 to units do
    let w0 = now l.clock and s0 = sim_now s in
    round ();
    let upto = now l.clock and r1 = reference l.clock in
    let g = segment ~from:w0 ~upto ~sim:(sim_now s -. s0) ~refs:(!r0, r1) in
    r0 := r1;
    wall_s := !wall_s +. g.seg_wall;
    segments := g :: !segments
  done;
  let checked, mismatches = parity l svc ~corrupt:cfg.corrupt in
  let wall_lat, sim_lat_ms = latencies l in
  let sequence = take 20_000 (Util.Vec.to_list l.questions) in
  let catalogue = take 2_000 (distinct sequence) in
  let points = access_points s in
  let oracle_checked, oracle_mismatches =
    oracle_check ~clock:l.clock s
      ((points.(0), Rvaas.Verifier.ip_traffic_hs ())
      :: List.map (fun q -> (q.pt, q.scope)) (take 6 catalogue))
  in
  let attempted = issued l in
  {
    wall_s = !wall_s;
    sim_s = sim_now s -. sim0;
    segments = List.rev !segments;
    attempted;
    failed = attempted - l.answered;
    answered = l.answered;
    wall_lat;
    sim_lat_ms;
    checks =
      [
        ("answer_vs_evaluate", checked, mismatches);
        ("compiled_vs_sweep", oracle_checked, oracle_mismatches);
        ("answer_decode", l.answered + l.unmatched + !undecodable, !undecodable);
      ];
    aside_lookups = (0, 0, 0);
    churn_planned = 0;
    churn_executed = 0;
    input =
      [
        ("queries", Util.Int attempted);
        ("rounds", Util.Int units);
        ("offered_sim_rate_qps", Util.Num rate);
        ("round_sim_s", Util.Num round_sim);
        ("distinct_questions_first_20k", Util.Int (List.length (distinct sequence)));
      ];
    capture =
      {
        catalogue;
        sequence;
        answers = List.rev l.kept;
        challenges = List.rev !challenges;
        journalled = List.mapi (fun i q -> (nonce_of i, q)) (take 500 sequence);
      };
  }
