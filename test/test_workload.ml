(* Tests for the topology generators and the scenario builder. *)

let check = Alcotest.check

let p = Workload.Topogen.default_params

(* Every generated topology must be fully wired (no dangling host),
   have unique ports, and be connected over the switch graph. *)
let structural_invariants name topo =
  let switches = Netsim.Topology.switches topo in
  let hosts = Netsim.Topology.hosts topo in
  (* hosts attach to exactly one switch *)
  List.iter
    (fun h ->
      match Netsim.Topology.host_attachment topo h with
      | Some { Netsim.Topology.node = Netsim.Topology.Switch _; _ } -> ()
      | Some _ | None -> Alcotest.fail (Printf.sprintf "%s: host %d unattached" name h))
    hosts;
  (* switch graph connected: BFS from first switch reaches all *)
  (match switches with
  | [] -> Alcotest.fail (name ^ ": no switches")
  | first :: _ ->
    let dist, _ = Netsim.Topology.shortest_paths topo ~from_sw:first in
    List.iter
      (fun sw ->
        if not (Hashtbl.mem dist sw) then
          Alcotest.fail (Printf.sprintf "%s: switch %d disconnected" name sw))
      switches);
  (* links reference declared nodes and distinct endpoints *)
  List.iter
    (fun (l : Netsim.Topology.link) ->
      if l.a = l.b then Alcotest.fail (name ^ ": self-loop"))
    (Netsim.Topology.links topo)

let test_generators_structure () =
  structural_invariants "linear" (Workload.Topogen.linear p 5);
  structural_invariants "ring" (Workload.Topogen.ring p 5);
  structural_invariants "star" (Workload.Topogen.star p 4);
  structural_invariants "grid" (Workload.Topogen.grid p ~rows:3 ~cols:4);
  structural_invariants "fat_tree" (Workload.Topogen.fat_tree p ~k:4);
  structural_invariants "waxman"
    (Workload.Topogen.waxman p (Support.Rng.create 3) ~n:15 ~alpha:0.4 ~beta:0.4);
  structural_invariants "isp" (Workload.Topogen.isp p ~core:4 ~pops_per_core:2)

let test_generator_counts () =
  check Alcotest.int "linear switches" 5
    (Workload.Topogen.switch_count (Workload.Topogen.linear p 5));
  check Alcotest.int "linear hosts" 5
    (Workload.Topogen.host_count (Workload.Topogen.linear p 5));
  let ft = Workload.Topogen.fat_tree p ~k:4 in
  (* (k/2)^2 cores + k pods x k switches = 4 + 16. *)
  check Alcotest.int "fat-tree switches" 20 (Workload.Topogen.switch_count ft);
  (* hosts only on the k*k/2 edge switches *)
  check Alcotest.int "fat-tree hosts" 8 (Workload.Topogen.host_count ft);
  let grid = Workload.Topogen.grid p ~rows:2 ~cols:3 in
  check Alcotest.int "grid switches" 6 (Workload.Topogen.switch_count grid);
  let isp = Workload.Topogen.isp p ~core:4 ~pops_per_core:2 in
  (* 4 core + 8 PoPs; hosts only on PoPs. *)
  check Alcotest.int "isp switches" 12 (Workload.Topogen.switch_count isp);
  check Alcotest.int "isp hosts" 8 (Workload.Topogen.host_count isp);
  List.iter
    (fun core_sw ->
      check Alcotest.int "no hosts on core" 0
        (List.length (Netsim.Topology.hosts_on_switch isp core_sw)))
    [ 0; 1; 2; 3 ]

let test_generator_hosts_per_switch () =
  let p2 = { p with Workload.Topogen.hosts_per_switch = 3 } in
  let topo = Workload.Topogen.linear p2 4 in
  check Alcotest.int "3 hosts per switch" 12 (Workload.Topogen.host_count topo);
  List.iter
    (fun sw ->
      check Alcotest.int
        (Printf.sprintf "switch %d hosts" sw)
        3
        (List.length (Netsim.Topology.hosts_on_switch topo sw)))
    (Netsim.Topology.switches topo)

let test_generator_validation () =
  Alcotest.check_raises "ring too small"
    (Invalid_argument "Topogen.ring: need at least three switches") (fun () ->
      ignore (Workload.Topogen.ring p 2));
  Alcotest.check_raises "odd fat-tree"
    (Invalid_argument "Topogen.fat_tree: k must be even and >= 2") (fun () ->
      ignore (Workload.Topogen.fat_tree p ~k:3))

let test_fat_tree_diameter () =
  (* Any two edge switches are at most 4 hops apart in a fat tree. *)
  let topo = Workload.Topogen.fat_tree p ~k:4 in
  List.iter
    (fun sw ->
      let dist, _ = Netsim.Topology.shortest_paths topo ~from_sw:sw in
      Hashtbl.iter
        (fun _ d -> check Alcotest.bool "diameter <= 4" true (d <= 4))
        dist)
    (Netsim.Topology.switches topo)

(* ---- property suite: structural invariants over every family ---- *)

let fingerprint topo =
  ( Netsim.Topology.switches topo,
    Netsim.Topology.hosts topo,
    List.map
      (fun (l : Netsim.Topology.link) -> (l.a, l.b, l.delay))
      (Netsim.Topology.links topo) )

let family_name = function
  | Workload.Topogen.Linear n -> Printf.sprintf "linear %d" n
  | Workload.Topogen.Ring n -> Printf.sprintf "ring %d" n
  | Workload.Topogen.Star n -> Printf.sprintf "star %d" n
  | Workload.Topogen.Grid { rows; cols } -> Printf.sprintf "grid %dx%d" rows cols
  | Workload.Topogen.Fat_tree { k } -> Printf.sprintf "fat_tree %d" k
  | Workload.Topogen.Leaf_spine { spines; leaves } ->
    Printf.sprintf "leaf_spine %d/%d" spines leaves
  | Workload.Topogen.Waxman { n; alpha; beta } ->
    Printf.sprintf "waxman %d a=%.2f b=%.2f" n alpha beta
  | Workload.Topogen.Isp { core; pops_per_core } ->
    Printf.sprintf "isp %d/%d" core pops_per_core
  | Workload.Topogen.Scale_free { n; m } -> Printf.sprintf "scale_free %d m=%d" n m

(* How many switches are host-eligible (before striding). *)
let eligible_sites = function
  | Workload.Topogen.Linear n | Workload.Topogen.Ring n | Workload.Topogen.Star n -> n
  | Workload.Topogen.Grid { rows; cols } -> rows * cols
  | Workload.Topogen.Fat_tree { k } -> k * k / 2
  | Workload.Topogen.Leaf_spine { leaves; _ } -> leaves
  | Workload.Topogen.Waxman { n; _ } -> n
  | Workload.Topogen.Isp { core; pops_per_core } -> core * pops_per_core
  | Workload.Topogen.Scale_free { n; _ } -> n

(* Per-family bound on the switch-to-switch degree of [sw]. *)
let degree_ok fam sw d =
  match fam with
  | Workload.Topogen.Linear _ -> d <= 2
  | Workload.Topogen.Ring _ -> d = 2
  | Workload.Topogen.Star n -> if sw = 0 then d = n else d = 1
  | Workload.Topogen.Grid _ -> d <= 4
  | Workload.Topogen.Fat_tree { k } -> d <= k
  | Workload.Topogen.Leaf_spine { spines; leaves } ->
    if sw < spines then d = leaves else d = spines
  | Workload.Topogen.Waxman _ -> d >= 1
  | Workload.Topogen.Isp { core; pops_per_core } ->
    if sw < core then d = 2 + pops_per_core else d = 1
  | Workload.Topogen.Scale_free { n = _; m } -> d >= m

let gen_family =
  QCheck2.Gen.(
    oneof
      [
        map (fun n -> Workload.Topogen.Linear (1 + n)) (int_bound 6);
        map (fun n -> Workload.Topogen.Ring (3 + n)) (int_bound 5);
        map (fun n -> Workload.Topogen.Star (1 + n)) (int_bound 6);
        map2
          (fun r c -> Workload.Topogen.Grid { rows = 1 + r; cols = 1 + c })
          (int_bound 3) (int_bound 3);
        map (fun k -> Workload.Topogen.Fat_tree { k = 2 * (1 + k) }) (int_bound 2);
        map2
          (fun s l -> Workload.Topogen.Leaf_spine { spines = 1 + s; leaves = 1 + l })
          (int_bound 3) (int_bound 8);
        map
          (fun n -> Workload.Topogen.Waxman { n = 2 + n; alpha = 0.6; beta = 0.5 })
          (int_bound 10);
        map2
          (fun c pp -> Workload.Topogen.Isp { core = 3 + c; pops_per_core = 1 + pp })
          (int_bound 3) (int_bound 3);
        map2
          (fun extra m ->
            Workload.Topogen.Scale_free { n = m + 2 + extra; m = 1 + m })
          (int_bound 8) (int_bound 2);
      ])

let gen_world =
  QCheck2.Gen.(quad gen_family (int_bound 1000) (int_range 1 3) (int_bound 2))

let prop_topogen_invariants =
  QCheck2.Test.make ~count:60
    ~name:"every family: involutive ports, connected, bounded, replayable"
    ~print:(fun (fam, seed, stride, hps) ->
      Printf.sprintf "%s seed=%d stride=%d hps=%d" (family_name fam) seed stride hps)
    gen_world
    (fun (fam, seed, stride, hps) ->
      let params =
        { Workload.Topogen.default_params with host_stride = stride;
          hosts_per_switch = hps }
      in
      let build () = Workload.Topogen.build params (Support.Rng.create seed) fam in
      let topo = build () in
      let switches = Netsim.Topology.switches topo in
      let links = Netsim.Topology.links topo in
      (* Port maps involutive and collision-free. *)
      let involutive =
        List.for_all
          (fun (l : Netsim.Topology.link) ->
            Netsim.Topology.peer topo l.a = Some l.b
            && Netsim.Topology.peer topo l.b = Some l.a)
          links
      in
      let endpoints =
        List.concat_map (fun (l : Netsim.Topology.link) -> [ l.a; l.b ]) links
      in
      let collision_free =
        List.length (List.sort_uniq compare endpoints) = List.length endpoints
      in
      (* Connected over the switch graph. *)
      let connected =
        match switches with
        | [] -> false
        | first :: _ ->
          let dist, _ = Netsim.Topology.shortest_paths topo ~from_sw:first in
          List.for_all (fun sw -> Hashtbl.mem dist sw) switches
      in
      (* Every host attached; the population honours the stride. *)
      let hosts = Netsim.Topology.hosts topo in
      let attached =
        List.for_all
          (fun h ->
            match Netsim.Topology.host_attachment topo h with
            | Some { Netsim.Topology.node = Netsim.Topology.Switch _; _ } -> true
            | Some _ | None -> false)
          hosts
      in
      let sites = eligible_sites fam in
      let expected_hosts = hps * ((sites + stride - 1) / stride) in
      (* Degree and stratum bounds. *)
      let degree_bounded =
        List.for_all
          (fun sw ->
            degree_ok fam sw
              (List.length (Netsim.Topology.neighbor_switches topo sw)))
          switches
      in
      let stratum_ok =
        let no_hosts sw = Netsim.Topology.hosts_on_switch topo sw = [] in
        match fam with
        | Workload.Topogen.Leaf_spine { spines; _ } ->
          List.for_all no_hosts (List.filter (fun sw -> sw < spines) switches)
        | Workload.Topogen.Isp { core; _ } ->
          List.for_all no_hosts (List.filter (fun sw -> sw < core) switches)
        | Workload.Topogen.Star _ -> no_hosts 0
        | _ -> true
      in
      involutive && collision_free && connected && attached
      && List.length hosts = expected_hosts
      && degree_bounded && stratum_ok
      (* Same seed, identical topology. *)
      && fingerprint (build ()) = fingerprint topo)

let test_multi_domain_composition () =
  let families =
    [
      Workload.Topogen.Leaf_spine { spines = 2; leaves = 4 };
      Workload.Topogen.Scale_free { n = 6; m = 2 };
      Workload.Topogen.Ring 4;
    ]
  in
  let md =
    Workload.Topogen.multi_domain p (Support.Rng.create 9) ~peering:2 families
  in
  check Alcotest.int "switches across domains" 16
    (Workload.Topogen.switch_count md.md_topo);
  (* leaf-spine hosts on leaves only; the other domains host everywhere *)
  check Alcotest.int "hosts across domains" 14
    (Workload.Topogen.host_count md.md_topo);
  structural_invariants "multi-domain" md.md_topo;
  check Alcotest.int "peering links per border" 4 (List.length md.md_peerings);
  List.iter
    (fun (a, b) ->
      match
        ( Workload.Topogen.domain_of_switch md a,
          Workload.Topogen.domain_of_switch md b )
      with
      | Some da, Some db ->
        check Alcotest.int "peering spans adjacent domains" 1 (db - da)
      | _ -> Alcotest.fail "peering endpoint outside any domain")
    md.md_peerings;
  check Alcotest.bool "every switch owned by a domain" true
    (List.for_all
       (fun sw -> Workload.Topogen.domain_of_switch md sw <> None)
       (Netsim.Topology.switches md.md_topo));
  check Alcotest.bool "unknown switch unowned" true
    (Workload.Topogen.domain_of_switch md 99 = None);
  let md2 =
    Workload.Topogen.multi_domain p (Support.Rng.create 9) ~peering:2 families
  in
  check Alcotest.bool "same seed, same composition" true
    (fingerprint md2.md_topo = fingerprint md.md_topo
    && md2.md_peerings = md.md_peerings)

let test_host_stride () =
  let p2 = { p with Workload.Topogen.hosts_per_switch = 2; host_stride = 3 } in
  let topo = Workload.Topogen.leaf_spine p2 ~spines:2 ~leaves:10 in
  (* Sites 0, 3, 6 and 9 of the ten leaves carry hosts. *)
  check Alcotest.int "strided host population" 8 (Workload.Topogen.host_count topo);
  (* A skipped leaf keeps its structural ports above the host range, so
     port numbering is identical at every stride. *)
  let skipped_leaf = 3 in
  check Alcotest.int "no hosts on a skipped leaf" 0
    (List.length (Netsim.Topology.hosts_on_switch topo skipped_leaf));
  check (Alcotest.list Alcotest.int) "structural ports preserved" [ 2; 3 ]
    (Netsim.Topology.switch_ports topo skipped_leaf);
  check (Alcotest.list Alcotest.int) "populated leaf uses the host ports"
    [ 0; 1; 2; 3 ]
    (Netsim.Topology.switch_ports topo 2)

let raises_invalid name f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_new_generator_validation () =
  let rng () = Support.Rng.create 1 in
  raises_invalid "leaf_spine no spines" (fun () ->
      ignore (Workload.Topogen.leaf_spine p ~spines:0 ~leaves:4));
  raises_invalid "leaf_spine no leaves" (fun () ->
      ignore (Workload.Topogen.leaf_spine p ~spines:2 ~leaves:0));
  raises_invalid "scale_free m zero" (fun () ->
      ignore (Workload.Topogen.scale_free p (rng ()) ~n:5 ~m:0));
  raises_invalid "scale_free n too small" (fun () ->
      ignore (Workload.Topogen.scale_free p (rng ()) ~n:2 ~m:2));
  raises_invalid "waxman alpha zero" (fun () ->
      ignore (Workload.Topogen.waxman p (rng ()) ~n:5 ~alpha:0.0 ~beta:0.5));
  raises_invalid "waxman alpha above one" (fun () ->
      ignore (Workload.Topogen.waxman p (rng ()) ~n:5 ~alpha:1.5 ~beta:0.5));
  raises_invalid "waxman beta zero" (fun () ->
      ignore (Workload.Topogen.waxman p (rng ()) ~n:5 ~alpha:0.5 ~beta:0.0));
  raises_invalid "isp core too small" (fun () ->
      ignore (Workload.Topogen.isp p ~core:2 ~pops_per_core:1));
  raises_invalid "negative hosts_per_switch" (fun () ->
      ignore
        (Workload.Topogen.linear { p with Workload.Topogen.hosts_per_switch = -1 } 3));
  raises_invalid "zero host_stride" (fun () ->
      ignore (Workload.Topogen.linear { p with Workload.Topogen.host_stride = 0 } 3));
  raises_invalid "nan link_delay" (fun () ->
      ignore
        (Workload.Topogen.linear { p with Workload.Topogen.link_delay = Float.nan } 3));
  raises_invalid "empty multi-domain" (fun () ->
      ignore (Workload.Topogen.multi_domain p (rng ()) ~peering:1 []));
  raises_invalid "zero peering" (fun () ->
      ignore
        (Workload.Topogen.multi_domain p (rng ()) ~peering:0
           [ Workload.Topogen.Ring 3 ]))

(* ---- scenario builder ---- *)

let test_scenario_round_robin_clients () =
  let topo = Workload.Topogen.linear p 6 in
  let s = Workload.Scenario.build { (Workload.Scenario.default_spec topo) with clients = 3 } in
  List.iter
    (fun host ->
      let info = Option.get (Sdnctl.Addressing.host s.addressing ~host) in
      check Alcotest.int
        (Printf.sprintf "host %d client" host)
        (host mod 3) info.client)
    (Netsim.Topology.hosts topo)

let test_scenario_agents_registered () =
  let topo = Workload.Topogen.linear p 3 in
  let s = Workload.Scenario.build (Workload.Scenario.default_spec topo) in
  check Alcotest.int "one agent per host" 3 (List.length s.agents);
  (* every agent can be looked up *)
  List.iter
    (fun h -> ignore (Workload.Scenario.agent s ~host:h))
    (Netsim.Topology.hosts topo)

let test_scenario_determinism () =
  (* Two builds with the same seed answer a query identically. *)
  let build () =
    let topo = Workload.Topogen.linear p 4 in
    Workload.Scenario.build { (Workload.Scenario.default_spec topo) with seed = 7 }
  in
  let answer s =
    match
      Workload.Scenario.query_and_wait s ~host:0
        (Rvaas.Query.make Rvaas.Query.Isolation)
        ~timeout:1.0
    with
    | Some o ->
      let a = o.Rvaas.Client_agent.answer in
      ( List.map (fun (e : Rvaas.Query.endpoint_report) -> (e.sw, e.port)) a.endpoints,
        a.total_auth_requests,
        o.answered_at )
    | None -> ([], -1, 0.0)
  in
  let a1 = answer (build ()) and a2 = answer (build ()) in
  check Alcotest.bool "identical answers for identical seeds" true (a1 = a2)

let test_scenario_policy_covers_whitelist () =
  let topo = Workload.Topogen.linear p 4 in
  let s =
    Workload.Scenario.build
      { (Workload.Scenario.default_spec topo) with clients = 2; whitelist = [ (1, 0) ] }
  in
  let policy = Workload.Scenario.policy_for s ~client:0 in
  (* client 1 may reach client 0, so client 1's points are allowed peers. *)
  let c1_points =
    Sdnctl.Addressing.access_points s.addressing (Netsim.Net.topology s.net) ~client:1
  in
  List.iter
    (fun pt ->
      check Alcotest.bool "whitelisted peer point allowed" true
        (List.mem pt policy.Rvaas.Detector.allowed_peer_points))
    c1_points

let test_scenario_snapshot_complete_after_build () =
  let topo = Workload.Topogen.grid p ~rows:2 ~cols:2 in
  let s = Workload.Scenario.build (Workload.Scenario.default_spec topo) in
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
  check Alcotest.int "snapshot converged" 0
    (Rvaas.Snapshot.divergence
       (Rvaas.Monitor.snapshot s.monitor)
       ~actual:(Workload.Scenario.actual_flows s))

let test_scenario_range_mode () =
  (* Range mode: every topology host gateways a block of addresses,
     carried end-to-end as one prefix. *)
  let topo = Workload.Topogen.leaf_spine p ~spines:2 ~leaves:3 in
  let s =
    Workload.Scenario.build
      { (Workload.Scenario.default_spec topo) with
        clients = 1; seed = 17; range_hosts = 500 }
  in
  check Alcotest.int "addresses cover the ranges" (3 * 500)
    (Workload.Scenario.address_count s);
  List.iter
    (fun host ->
      check Alcotest.bool "every gateway exposes a range scope" true
        (Workload.Scenario.range_scope s ~host <> None))
    (Netsim.Topology.hosts topo);
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.3);
  check Alcotest.int "snapshot converged in range mode" 0
    (Rvaas.Snapshot.divergence
       (Rvaas.Monitor.snapshot s.monitor)
       ~actual:(Workload.Scenario.actual_flows s));
  (* A query scoped to a whole range answers and verifies. *)
  let scope = Workload.Scenario.range_scope s ~host:1 in
  match
    Workload.Scenario.query_and_wait s ~host:0
      (Rvaas.Query.make ?scope Rvaas.Query.Reachable_endpoints)
      ~timeout:2.0
  with
  | Some o ->
    check Alcotest.bool "signature verifies" true o.Rvaas.Client_agent.signature_ok;
    check Alcotest.bool "the range is reachable" true
      (o.Rvaas.Client_agent.answer.Rvaas.Query.endpoints <> [])
  | None -> Alcotest.fail "no answer to the range-scoped query"

(* ---- churn campaigns ---- *)

let churn_world seed =
  let topo = Workload.Topogen.leaf_spine p ~spines:2 ~leaves:3 in
  Workload.Scenario.build
    { (Workload.Scenario.default_spec topo) with
      clients = 1; seed; polling = Rvaas.Monitor.Periodic 0.05 }

let class_counts (c : Workload.Churn.campaign) =
  List.fold_left
    (fun (u, f, a, s) (_, e) ->
      match e with
      | Workload.Churn.Upgrade _ -> (u + 1, f, a, s)
      | Workload.Churn.Flap _ -> (u, f + 1, a, s)
      | Workload.Churn.Attack_burst _ -> (u, f, a + 1, s)
      | Workload.Churn.Storm _ -> (u, f, a, s + 1))
    (0, 0, 0, 0) c.Workload.Churn.c_events

let test_churn_plan_replayable () =
  let s = churn_world 23 in
  let plan seed =
    Workload.Churn.plan s Workload.Churn.default_profile ~seed ~start:1.0
      ~duration:600.0
  in
  let c1 = plan 5 and c2 = plan 5 in
  check Alcotest.bool "same seed, same program" true
    (c1.Workload.Churn.c_events = c2.Workload.Churn.c_events);
  check Alcotest.bool "events drawn at the profile rates" true
    (Workload.Churn.event_count c1 > 20);
  let times = List.map fst c1.Workload.Churn.c_events in
  check Alcotest.bool "ascending schedule" true (List.sort compare times = times);
  check Alcotest.bool "within the window" true
    (List.for_all (fun t -> t >= 1.0 && t < 601.0) times);
  let c3 = plan 6 in
  check Alcotest.bool "different seed, different program" true
    (c1.Workload.Churn.c_events <> c3.Workload.Churn.c_events)

let test_churn_describe () =
  check Alcotest.string "upgrade" "upgrade s3 (2.0s outage)"
    (Workload.Churn.describe (Workload.Churn.Upgrade { sw = 3; outage = 2.0 }));
  check Alcotest.string "flap" "flap s1:4 (1.5s down)"
    (Workload.Churn.describe (Workload.Churn.Flap { sw = 1; port = 4; down = 1.5 }));
  check Alcotest.string "attack" "attack blackhole(h2) (3.0s dwell)"
    (Workload.Churn.describe
       (Workload.Churn.Attack_burst
          { attack = Sdnctl.Attack.Blackhole { victim_host = 2 }; dwell = 3.0 }));
  check Alcotest.string "storm" "storm h7 (20 queries over 2.0s)"
    (Workload.Churn.describe
       (Workload.Churn.Storm { host = 7; queries = 20; spread = 2.0 }))

let test_churn_execute_reports () =
  let s = churn_world 31 in
  let profile =
    { Workload.Churn.upgrades_per_min = 6.0; flaps_per_min = 6.0;
      attacks_per_min = 6.0; storms_per_min = 6.0; upgrade_outage = 0.3;
      flap_down = 0.3; attack_dwell = 0.4; storm_queries = 5;
      storm_spread = 0.5 }
  in
  let t0 = Netsim.Sim.now (Netsim.Net.sim s.net) in
  let campaign = Workload.Churn.plan s profile ~seed:3 ~start:(t0 +. 0.5) ~duration:60.0 in
  let u, f, a, st = class_counts campaign in
  check Alcotest.bool "campaign has a spread of events" true (u + f + a + st > 5);
  let report = Workload.Churn.execute s campaign in
  check Alcotest.int "upgrades executed" u report.Workload.Churn.upgrades;
  check Alcotest.int "flaps executed" f report.Workload.Churn.flaps;
  check Alcotest.int "attacks executed" a report.Workload.Churn.attacks;
  check Alcotest.int "storms executed" st report.Workload.Churn.storms;
  check Alcotest.int "storm queries all sent" (st * 5)
    report.Workload.Churn.storm_queries_sent;
  check Alcotest.bool "storm queries answered" true
    (st = 0 || report.Workload.Churn.storm_answers > 0);
  (* After the campaign settles, every transient is retracted or
     restored and the believed view matches the wire again. *)
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 1.0);
  check Alcotest.int "snapshot reconverged" 0
    (Rvaas.Snapshot.divergence
       (Rvaas.Monitor.snapshot (Workload.Scenario.monitor s))
       ~actual:(Workload.Scenario.actual_flows s))

(* ---- traffic generation ---- *)

let test_traffic_delivery () =
  let topo = Workload.Topogen.linear p 3 in
  let s =
    Workload.Scenario.build { (Workload.Scenario.default_spec topo) with clients = 1 }
  in
  let t0 = Netsim.Sim.now (Netsim.Net.sim s.net) in
  let flow =
    Workload.Trafficgen.make_flow s ~src_host:0 ~dst_host:2 ~rate_pps:100.0
      ~size_bytes:200 ~start:(t0 +. 0.01) ~duration:0.5
  in
  match Workload.Trafficgen.run s [ flow ] ~until:(t0 +. 1.0) with
  | [ r ] ->
    check Alcotest.int "all sent" 50 r.sent;
    check Alcotest.int "all delivered" 50 r.delivered;
    check Alcotest.bool "goodput ≈ 160 kbps" true
      (abs_float (Workload.Trafficgen.goodput_kbps r -. 160.0) < 5.0)
  | _ -> Alcotest.fail "expected one report"

let test_traffic_two_flows_distinguished () =
  let topo = Workload.Topogen.linear p 3 in
  let s =
    Workload.Scenario.build { (Workload.Scenario.default_spec topo) with clients = 1 }
  in
  let t0 = Netsim.Sim.now (Netsim.Net.sim s.net) in
  let mk src dst rate =
    Workload.Trafficgen.make_flow s ~src_host:src ~dst_host:dst ~rate_pps:rate
      ~size_bytes:100 ~start:(t0 +. 0.01) ~duration:0.2
  in
  match Workload.Trafficgen.run s [ mk 0 2 100.0; mk 1 2 50.0 ] ~until:(t0 +. 1.0) with
  | [ a; b ] ->
    check Alcotest.int "flow a" 20 a.delivered;
    check Alcotest.int "flow b" 10 b.delivered
  | _ -> Alcotest.fail "expected two reports"

let test_traffic_meter_squeeze_observable () =
  (* The meter-squeeze attack must reduce data-plane goodput, matching
     what the Fairness configuration query reports. *)
  let run_with ~attack =
    let topo = Workload.Topogen.linear p 3 in
    let s =
      Workload.Scenario.build { (Workload.Scenario.default_spec topo) with clients = 1 }
    in
    if attack then begin
      Sdnctl.Attack.launch s.net s.addressing
        ~conn:(Sdnctl.Provider.conn s.provider)
        (Sdnctl.Attack.Meter_squeeze { victim_host = 2; rate_kbps = 50 });
      Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 0.1)
    end;
    let t0 = Netsim.Sim.now (Netsim.Net.sim s.net) in
    let flow =
      (* 400 pps x 500 B = 1600 kbps offered. *)
      Workload.Trafficgen.make_flow s ~src_host:0 ~dst_host:2 ~rate_pps:400.0
        ~size_bytes:500 ~start:(t0 +. 0.01) ~duration:1.0
    in
    match Workload.Trafficgen.run s [ flow ] ~until:(t0 +. 2.0) with
    | [ r ] -> Workload.Trafficgen.goodput_kbps r
    | _ -> Alcotest.fail "expected one report"
  in
  let free = run_with ~attack:false and squeezed = run_with ~attack:true in
  check Alcotest.bool "unmetered flow runs at line rate" true (free > 1500.0);
  (* 50 kbps meter + burst allowance: well under a quarter of the offer. *)
  check Alcotest.bool "squeezed flow throttled" true (squeezed < 400.0)

let () =
  Alcotest.run "workload"
    [
      ( "topogen",
        [
          Alcotest.test_case "structural invariants" `Quick test_generators_structure;
          Alcotest.test_case "counts" `Quick test_generator_counts;
          Alcotest.test_case "hosts per switch" `Quick test_generator_hosts_per_switch;
          Alcotest.test_case "validation" `Quick test_generator_validation;
          Alcotest.test_case "fat-tree diameter" `Quick test_fat_tree_diameter;
          Alcotest.test_case "multi-domain composition" `Quick
            test_multi_domain_composition;
          Alcotest.test_case "host stride" `Quick test_host_stride;
          Alcotest.test_case "new generator validation" `Quick
            test_new_generator_validation;
          QCheck_alcotest.to_alcotest prop_topogen_invariants;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "round-robin clients" `Quick test_scenario_round_robin_clients;
          Alcotest.test_case "agents registered" `Quick test_scenario_agents_registered;
          Alcotest.test_case "determinism" `Quick test_scenario_determinism;
          Alcotest.test_case "whitelist in policy" `Quick test_scenario_policy_covers_whitelist;
          Alcotest.test_case "snapshot complete" `Quick
            test_scenario_snapshot_complete_after_build;
          Alcotest.test_case "range mode" `Quick test_scenario_range_mode;
        ] );
      ( "churn",
        [
          Alcotest.test_case "plan replayable" `Quick test_churn_plan_replayable;
          Alcotest.test_case "describe" `Quick test_churn_describe;
          Alcotest.test_case "execute reports" `Quick test_churn_execute_reports;
        ] );
      ( "trafficgen",
        [
          Alcotest.test_case "delivery at rate" `Quick test_traffic_delivery;
          Alcotest.test_case "flows distinguished" `Quick
            test_traffic_two_flows_distinguished;
          Alcotest.test_case "meter squeeze observable" `Quick
            test_traffic_meter_squeeze_observable;
        ] );
    ]
