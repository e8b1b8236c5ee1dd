(* Tier-1 coverage for the parallel + incremental verification engine:
   pooled passes must be observationally identical to the sequential
   paths (byte-for-byte on the header spaces), the compiled engine
   must never mask a reconfiguration — the rule-injection attack has
   to surface even though the previous answer came from precomputed
   sources — and a federated query must reach exactly what a global
   pass over the whole internetwork reaches. *)

let check = Alcotest.check

(* Worker domains are a bounded OS resource: every test case shares one
   pool, spawned lazily on first use. *)
let pool4 = lazy (Support.Pool.create 4)

let build ?(clients = 2) ?(isolation = true) topo =
  let s =
    Workload.Scenario.build
      { (Workload.Scenario.default_spec topo) with clients; isolation }
  in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
  s

(* ---- Service isolation query: pooled warm = sequential warm ---- *)

let query_point s =
  let topo = Netsim.Net.topology s.Workload.Scenario.net in
  let att = Option.get (Netsim.Topology.host_attachment topo 0) in
  match att.Netsim.Topology.node with
  | Netsim.Topology.Switch sw -> (sw, att.Netsim.Topology.port)
  | _ -> assert false

let evaluate_isolation s =
  let sw, port = query_point s in
  Rvaas.Service.evaluate s.Workload.Scenario.service ~client:0 ~sw ~port
    (Rvaas.Query.make Rvaas.Query.Isolation)

let probes_fingerprint probes =
  List.map
    (fun (ep : Rvaas.Verifier.endpoint) -> Printf.sprintf "%d/%d/%d" ep.host ep.sw ep.port)
    probes

(* Two graphs compiled over the same monitored view, one warmed over
   every access point across the pool and one sequentially, must give
   the same isolation verdict — and the same one the service serves. *)
let test_service_isolation_equal () =
  let s = build (Workload.Topogen.fat_tree Workload.Topogen.default_params ~k:4) in
  let topo = Netsim.Net.topology s.net in
  let snapshot = Rvaas.Monitor.snapshot s.monitor in
  let flows_of sw = Rvaas.Snapshot.flows snapshot ~sw in
  let points = Rvaas.Verifier.access_points topo in
  let warmed pool =
    let p = Rvaas.Plumbing.compile ~flows_of topo in
    Rvaas.Plumbing.warm ?pool p
      ~points:(List.map (fun (ep : Rvaas.Verifier.endpoint) -> (ep.sw, ep.port)) points);
    p
  in
  let hs = Rvaas.Verifier.ip_traffic_hs () in
  let own (ep : Rvaas.Verifier.endpoint) =
    Rvaas.Directory.client_of_host s.directory ~host:ep.host = Some 0
  in
  let targets = List.filter own points in
  let verdict p =
    targets
    @ List.filter
        (fun (src : Rvaas.Verifier.endpoint) ->
          (not (own src))
          && List.exists
               (fun (ep, _) -> List.mem ep targets)
               (Rvaas.Plumbing.reach p ~src_sw:src.sw ~src_port:src.port ~hs).endpoints)
        points
  in
  let seq = warmed None and par = warmed (Some (Lazy.force pool4)) in
  check Alcotest.bool "pooled warm compiled sources" true
    ((Rvaas.Plumbing.stats par).pool_warms > 0);
  check
    Alcotest.(list string)
    "pooled verdict = sequential verdict"
    (probes_fingerprint (verdict seq))
    (probes_fingerprint (verdict par));
  check
    Alcotest.(list string)
    "service serves the same verdict"
    (probes_fingerprint (verdict par))
    (probes_fingerprint (snd (evaluate_isolation s)))

(* ---- Compiled engine: repeats agree, never masks an attack ---- *)

let test_compiled_attack_detected () =
  let s = build (Workload.Topogen.fat_tree Workload.Topogen.default_params ~k:4) in
  let stats =
    Rvaas.Plumbing.stats (Option.get (Rvaas.Service.plumbing s.service))
  in
  let _, before = evaluate_isolation s in
  let _, repeat = evaluate_isolation s in
  check
    Alcotest.(list string)
    "repeat answer identical" (probes_fingerprint before) (probes_fingerprint repeat);
  let updates0 = stats.Rvaas.Plumbing.updates in
  (* The attacker (client 1's host) injects Flow-Mods joining client
     0's isolation domain.  The monitor's snapshot-change hook must
     push the delta into the graph so the next lookup sees the new
     rules instead of the stale precomputed sources. *)
  Sdnctl.Attack.launch s.net s.addressing
    ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 });
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.2);
  check Alcotest.bool "snapshot change reached the graph" true
    (stats.Rvaas.Plumbing.updates > updates0);
  let _, after = evaluate_isolation s in
  let before_fp = probes_fingerprint before in
  check Alcotest.bool "attacker's access point surfaces" true
    (List.exists (fun p -> not (List.mem p before_fp)) (probes_fingerprint after))

(* ---- Federation: handoffs reach what a global pass reaches ---- *)

let test_federation_equals_global () =
  let switches = 9 in
  let topo = Workload.Topogen.linear Workload.Topogen.default_params switches in
  let s = build ~clients:1 ~isolation:false topo in
  let flows_of = Workload.Scenario.actual_flows s in
  let rng = Support.Rng.create 5 in
  (* Three providers of three switches each; by default every domain
     trusts every other one. *)
  let domains =
    List.init 3 (fun d ->
        let name = Printf.sprintf "provider-%d" d in
        {
          Rvaas.Federation.name;
          member = (fun sw -> sw >= 3 * d && sw < 3 * (d + 1));
          flows_of;
          geo = s.geo_truth;
          keypair = Cryptosim.Keys.generate rng ~owner:name;
        })
  in
  let fed = Rvaas.Federation.create topo domains in
  let hs = Rvaas.Verifier.ip_traffic_hs () in
  let crossed = ref 0 in
  List.iter
    (fun (src : Rvaas.Verifier.endpoint) ->
      let start_domain = Option.get (Rvaas.Federation.domain_of fed ~sw:src.sw) in
      let federated =
        Rvaas.Federation.reach fed ~start_domain ~src_sw:src.sw ~src_port:src.port ~hs
      in
      let global =
        Rvaas.Verifier.reach ~flows_of topo ~src_sw:src.sw ~src_port:src.port ~hs
      in
      crossed := !crossed + federated.sub_queries;
      check Alcotest.(list string) "no untrusted domain" [] federated.untrusted_domains;
      check
        Alcotest.(list string)
        "federated endpoints = global endpoints"
        (probes_fingerprint (List.map fst global.endpoints))
        (probes_fingerprint (List.map fst federated.endpoints));
      List.iter2
        (fun (_, a) (_, b) ->
          check Alcotest.bool "same arrival space" true (Hspace.Hs.equal a b))
        global.endpoints federated.endpoints)
    (Rvaas.Verifier.access_points topo);
  check Alcotest.bool "queries actually crossed domains" true (!crossed > 0)

let () =
  Alcotest.run "parallel"
    [
      ( "service",
        [
          Alcotest.test_case "isolation parallel = sequential" `Quick
            test_service_isolation_equal;
          Alcotest.test_case "compiled engine never masks an attack" `Quick
            test_compiled_attack_detected;
        ] );
      ( "federation",
        [
          Alcotest.test_case "federated = global verifier" `Quick
            test_federation_equals_global;
        ] );
    ]
