(* churn-soak: E22's shape, scaled down to fit one run.

   Why: set-up is dominated by provider Flow-Mod apply and monitor
   ingest, and the run by snapshot and plumbing updates.  Queries are
   few, so the front-end and codec barely move. *)

open World

(* A leaf-spine data centre peered to a scale-free backbone, every
   attachment point a /16 range gateway; link delays drawn from [seed]. *)
let topo ~tiny ~seed () =
  let params =
    { Workload.Topogen.default_params with hosts_per_switch = 1; host_stride = 4 }
  in
  let families =
    if tiny then
      [
        Workload.Topogen.Leaf_spine { spines = 2; leaves = 8 };
        Workload.Topogen.Scale_free { n = 8; m = 2 };
      ]
    else
      [
        Workload.Topogen.Leaf_spine { spines = 4; leaves = 64 };
        Workload.Topogen.Scale_free { n = 24; m = 2 };
      ]
  in
  jitter_links ~seed
    (Workload.Topogen.multi_domain params (Support.Rng.create 22) ~peering:3 families)
      .Workload.Topogen.md_topo

let poll_period = 5.0

(* One tenant per /16 gateway, as in E22.  Each tenant whitelists two
   peers, so a storm query's answer probes gateways across the churning
   network instead of coming back empty. *)
let spec ~seed topo =
  let n = List.length (Netsim.Topology.hosts topo) in
  {
    (Storm.spec ~seed topo) with
    clients = n;
    whitelist = List.concat (List.init n (fun c -> [ (c, (c + 1) mod n); (c, (c + 7) mod n) ]));
    polling = Rvaas.Monitor.Periodic poll_period;
    range_hosts = 0x10000;
  }

let setup (cfg : cfg) () =
  World.setup ~topo:(topo ~tiny:cfg.tiny ~seed:cfg.seed) ~spec:(spec ~seed:cfg.seed) ~step:(poll_period /. 10.0)

(* All four event kinds, at rates that give every campaign chunk a few
   of each.  Storms are frequent and small, so the number of storm
   queries per run varies little from seed to seed. *)
let profile =
  {
    Workload.Churn.upgrades_per_min = 4.0;
    flaps_per_min = 8.0;
    attacks_per_min = 4.0;
    storms_per_min = 120.0;
    upgrade_outage = 5.0;
    flap_down = 3.0;
    attack_dwell = 10.0;
    storm_queries = 4;
    storm_spread = 0.5;
  }

(* One campaign chunk covers this much simulated time, then settles
   until every transient has retracted. *)
let chunk_sim ~tiny = if tiny then 10.0 else 30.0

let settle_sim = 11.0

(* Parity is sampled this often (simulated seconds). *)
let sample_sim = 5.0

let drive (cfg : cfg) (st : setup) ~units =
  let s = st.scenario in
  let sim = Netsim.Net.sim s.net in
  let points = access_points s in
  let gateways = Array.of_list (Netsim.Topology.hosts (Netsim.Net.topology s.net)) in
  let rng = Support.Rng.create ((cfg.seed * 4099) + 3) in
  let point_of_host =
    let tbl = Hashtbl.create 64 in
    Array.iter (fun (p : Rvaas.Verifier.endpoint) -> Hashtbl.replace tbl p.host p) points;
    Hashtbl.find tbl
  in
  let l = ledger () in
  let by_nonce = Hashtbl.create 4096 in
  let svc = Sc.service s in
  (* The believed view's generation: it moves whenever an observation
     changes a switch's believed table. *)
  let generation = ref 0 in
  Rvaas.Monitor.on_snapshot_change (Sc.monitor s) (fun ~sw:_ ~changed ->
      if changed then incr generation);
  let sent_at_generation = Util.Vec.create 0 in
  (* Every storm answer is checked on arrival against per-query
     [Service.evaluate] of its question, off the drive's clock, when the
     believed view did not change while the query was in flight (else
     the answer may rightly reflect either view; those are counted).
     The view is unchanged since the answer was computed, so the check
     re-derives nothing; its plumbing lookups are set aside. *)
  let storm_checked = ref 0 and storm_mismatches = ref 0 and storm_unchecked = ref 0 in
  let aside_lookups = ref (0, 0, 0) in
  let lookup_mark () =
    match Rvaas.Service.plumbing svc with
    | None -> (0, 0, 0)
    | Some pl ->
      let p = Rvaas.Plumbing.stats pl in
      (p.lookups, p.scoped_lookups, p.fallback_sweeps)
  in
  let check qid (a : Rvaas.Query.answer) =
    if Util.Vec.get sent_at_generation qid <> !generation then incr storm_unchecked
    else
      aside l.clock (fun () ->
          let a0, b0, c0 = lookup_mark () in
          let expected = expected_fingerprint svc (Util.Vec.get l.questions qid) in
          let expected = if cfg.corrupt && !storm_checked = 0 then expected lxor 1 else expected in
          incr storm_checked;
          if expected <> answer_fingerprint a then incr storm_mismatches;
          let a1, b1, c1 = lookup_mark () and x, y, z = !aside_lookups in
          aside_lookups := (x + a1 - a0, y + b1 - b0, z + c1 - c0))
  in
  (* Storm queries are sent by the benchmark itself, through the
     target host's agent, so each is timed from its own send call. *)
  Array.iter
    (fun host ->
      Rvaas.Client_agent.set_answer_callback (Sc.agent s ~host)
        (fun (o : Rvaas.Client_agent.outcome) ->
          let qid = Option.value ~default:(-1) (Hashtbl.find_opt by_nonce o.answer.nonce) in
          let before = l.answered in
          Trace.with_span "client.receive" (fun () -> deliver l qid ~at:o.answered_at o.answer);
          if l.answered > before then check qid o.answer))
    gateways;
  let storm_send host =
    let info = host_info s host in
    let q =
      { pt = point_of_host host; scope = Rvaas.Verifier.ip_traffic_hs (); ip = info.ip; client = info.client }
    in
    let qid = record l q ~due:(Netsim.Sim.now sim) in
    Util.Vec.push sent_at_generation !generation;
    let nonce =
      Trace.with_span ~qid "frontend.inject" (fun () ->
          Rvaas.Client_agent.send_query (Sc.agent s ~host) (query_of q))
    in
    Hashtbl.replace by_nonce nonce qid
  in
  let planned = ref 0 and executed = ref 0 in
  let oracle_checked = ref 0 and oracle_mismatches = ref 0 in
  let sample k =
    let gw = gateways.(Support.Rng.int rng (Array.length gateways)) in
    let scopes = [ Option.get (Sc.range_scope s ~host:gw); Rvaas.Verifier.ip_traffic_hs () ] in
    let pts =
      [
        points.(Support.Rng.int rng (Array.length points));
        points.((k * 7) mod Array.length points);
      ]
    in
    let c, m =
      oracle_check ~corrupt:(cfg.corrupt && k = 1) ~clock:l.clock s
        (List.concat_map (fun pt -> List.map (fun hs -> (pt, hs)) scopes) pts)
    in
    oracle_checked := !oracle_checked + c;
    oracle_mismatches := !oracle_mismatches + m
  in
  let chunk_sim = chunk_sim ~tiny:cfg.tiny in
  let segments = ref [] and r0 = ref (reference l.clock) in
  let chunk i =
    let start = sim_now s in
    let campaign =
      Workload.Churn.plan s profile ~seed:((cfg.seed * 1000) + i) ~start ~duration:chunk_sim
    in
    let storms, others =
      List.partition
        (fun (_, e) -> match e with Workload.Churn.Storm _ -> true | _ -> false)
        campaign.Workload.Churn.c_events
    in
    planned := !planned + Workload.Churn.event_count campaign;
    let report =
      Workload.Churn.schedule s { campaign with Workload.Churn.c_events = others }
    in
    (* a storm has executed once every one of its queries was sent;
       each sent query is then answered or counted as failed *)
    let storms_run = ref 0 in
    List.iter
      (fun (time, e) ->
        match e with
        | Workload.Churn.Storm { host; queries; spread } ->
          let gap = spread /. float_of_int (max 1 queries) in
          let sent = ref 0 in
          if queries = 0 then incr storms_run;
          for k = 0 to queries - 1 do
            Netsim.Sim.schedule_at sim ~time:(time +. (float_of_int k *. gap)) (fun () ->
                storm_send host;
                incr sent;
                if !sent = queries then incr storms_run)
          done
        | _ -> ())
      storms;
    (* each sampling interval is one of the drive's units *)
    let stop = start +. chunk_sim +. settle_sim in
    let k = ref 0 in
    while sim_now s < stop do
      let w0 = now l.clock and s0 = sim_now s in
      run_until s (Float.min stop (sim_now s +. sample_sim));
      incr k;
      sample ((i * 100) + !k);
      let upto = now l.clock and r1 = reference l.clock in
      segments := segment ~from:w0 ~upto ~sim:(sim_now s -. s0) ~refs:(!r0, r1) :: !segments;
      r0 := r1
    done;
    executed :=
      !executed + report.Workload.Churn.upgrades + report.Workload.Churn.flaps
      + report.Workload.Churn.attacks + !storms_run
  in
  let sim0 = sim_now s and wall0 = now l.clock in
  for i = 0 to units - 1 do
    chunk i
  done;
  let wall_s = now l.clock -. wall0 in
  let wall_lat, sim_lat_ms = latencies l in
  let sequence = take 20_000 (Util.Vec.to_list l.questions) in
  let catalogue = take 2_000 (distinct sequence) in
  let missed_events = !planned - !executed in
  {
    wall_s;
    sim_s = sim_now s -. sim0;
    segments = List.rev !segments;
    attempted = issued l + !planned;
    failed = issued l - l.answered + missed_events;
    answered = l.answered;
    wall_lat;
    sim_lat_ms;
    checks =
      [
        ("compiled_vs_sweep", !oracle_checked, !oracle_mismatches);
        ("answer_vs_evaluate", !storm_checked, !storm_mismatches);
        ("campaign_events", !planned, missed_events);
        ("unmatched_answers", l.answered + l.unmatched, l.unmatched);
      ];
    aside_lookups = !aside_lookups;
    churn_planned = !planned;
    churn_executed = !executed;
    input =
      [
        ("chunks", Util.Int units);
        ("chunk_sim_s", Util.Num chunk_sim);
        ("campaign_events", Util.Int !planned);
        ("storm_queries", Util.Int (issued l));
        ("storm_answers_unchecked", Util.Int !storm_unchecked);
        ("gateways", Util.Int (Array.length gateways));
      ];
    capture =
      {
        catalogue;
        sequence;
        answers = List.rev l.kept;
        challenges = [];
        journalled = List.mapi (fun i q -> (Printf.sprintf "c%d" i, q)) (take 500 sequence);
      };
  }
