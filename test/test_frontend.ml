(* Multi-tenant front-end: admission and the one sharing rule.

   Unit level drives [Rvaas.Frontend] directly (it is protocol-free by
   design: waiters are plain ints here).  System level drives the
   served path — [Service.inject_query] for fan-in shape, real client
   agents for the signed throttle verdict and the shared-vs-per-query
   differentials. *)

let check = Alcotest.check

let p = Workload.Topogen.default_params

module F = Rvaas.Frontend

let scope_a () = Rvaas.Verifier.ip_traffic_hs ()

let scope_b i = Rvaas.Verifier.dst_ip_hs i

(* ---- unit: config validation ---- *)

let test_config_validation () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let mk limits batch_window : int F.t =
    F.create { F.limits; batch_window }
  in
  check Alcotest.bool "zero rate rejected" true
    (raises (fun () -> mk (Some { F.rate = 0.0; burst = 2.0 }) 0.0));
  check Alcotest.bool "burst < 1 rejected" true
    (raises (fun () -> mk (Some { F.rate = 1.0; burst = 0.5 }) 0.0));
  check Alcotest.bool "negative window rejected" true
    (raises (fun () -> mk None (-0.001)));
  check Alcotest.bool "valid config accepted" true
    (match mk (Some { F.rate = 1.0; burst = 1.0 }) 0.01 with
    | _ -> true)

(* ---- unit: token-bucket admission ---- *)

let test_token_bucket () =
  let fe : int F.t =
    F.create
      { F.limits = Some { F.rate = 1.0; burst = 2.0 }; batch_window = 0.0 }
  in
  (* Fresh bucket starts full: the burst passes, the next query not. *)
  check Alcotest.bool "burst 1 admitted" true (F.admit fe ~client:0 ~now:0.0);
  check Alcotest.bool "burst 2 admitted" true (F.admit fe ~client:0 ~now:0.0);
  check Alcotest.bool "over budget throttled" false (F.admit fe ~client:0 ~now:0.0);
  (* Buckets are per client: a victim tenant is unaffected. *)
  check Alcotest.bool "other client admitted" true (F.admit fe ~client:1 ~now:0.0);
  (* One second refills one token at rate = 1/s — and only one. *)
  check Alcotest.bool "refilled after 1s" true (F.admit fe ~client:0 ~now:1.0);
  check Alcotest.bool "refill is not a reset" false (F.admit fe ~client:0 ~now:1.0);
  (* Refill caps at burst. *)
  check Alcotest.bool "cap 1" true (F.admit fe ~client:0 ~now:100.0);
  check Alcotest.bool "cap 2" true (F.admit fe ~client:0 ~now:100.0);
  check Alcotest.bool "cap 3" false (F.admit fe ~client:0 ~now:100.0);
  let s = F.stats fe in
  check Alcotest.int "admissions counted" 6 s.F.admitted;
  check Alcotest.int "throttles counted" 3 s.F.throttled;
  (* Unlimited config admits everything. *)
  let open_fe : int F.t = F.create (F.coalescing ()) in
  for _ = 1 to 50 do
    check Alcotest.bool "no limits: admitted" true (F.admit open_fe ~client:0 ~now:0.0)
  done

(* ---- unit: sharing keys (observed through submit) ---- *)

(* The scope a query's submit carries: its own, or all IP traffic. *)
let scope_of (q : Rvaas.Query.t) = Option.value q.scope ~default:(scope_a ())

let test_coalescing_keys () =
  let fe : int F.t = F.create (F.coalescing ()) in
  let submit ~client ~sw ~port q w =
    (* Mirror the service flow: admission first (no limits here — it
       only feeds the admitted counter the coalesce rate divides by). *)
    ignore (F.admit fe ~client ~now:0.0);
    F.submit fe ~key:(F.key_of ~client ~sw ~port q) ~scope:(scope_of q) ~client ~sw ~port q
      ~waiter:w
  in
  let reach = Rvaas.Query.make ~scope:(scope_a ()) Rvaas.Query.Reachable_endpoints in
  check Alcotest.bool "first opens the queue" true
    (submit ~client:0 ~sw:1 ~port:1 reach 0 = `Queued `First);
  (* Reachability does not depend on the asking tenant: a different
     client's identical question coalesces. *)
  check Alcotest.bool "same question, other client coalesces" true
    (submit ~client:1 ~sw:1 ~port:1 reach 1 = `Coalesced);
  (* A different injection point is a different question. *)
  check Alcotest.bool "other point queued" true
    (submit ~client:0 ~sw:2 ~port:1 reach 2 = `Queued `Later);
  (* Isolation is per tenant... *)
  let iso = Rvaas.Query.make Rvaas.Query.Isolation in
  check Alcotest.bool "isolation c0 queued" true
    (submit ~client:0 ~sw:1 ~port:1 iso 3 = `Queued `Later);
  check Alcotest.bool "isolation c1 not folded into c0" true
    (submit ~client:1 ~sw:1 ~port:1 iso 4 = `Queued `Later);
  (* ...but ignores its scope at evaluation, so differently-scoped
     isolation queries are still the same question. *)
  let iso_scoped = Rvaas.Query.make ~scope:(scope_b 7) Rvaas.Query.Isolation in
  check Alcotest.bool "isolation scope irrelevant" true
    (submit ~client:0 ~sw:1 ~port:1 iso_scoped 5 = `Coalesced);
  check Alcotest.int "four distinct computations" 4 (F.queued fe);
  let leader = List.hd (F.flush fe) in
  check Alcotest.int "both waiters on the folded entry" 2
    (List.length leader.F.e_waiters);
  check (Alcotest.float 1e-9) "coalesce rate" (2.0 /. 6.0) (F.coalesce_rate fe);
  (* The flush cleared the sharing index: the same key queues anew. *)
  check Alcotest.bool "post-flush key is fresh" true
    (submit ~client:0 ~sw:1 ~port:1 reach 6 = `Queued `First)

(* ---- unit: flush hands out a flat list in arrival order ---- *)

let test_flush_flat () =
  let fe : int F.t = F.create (F.coalescing ()) in
  let submit ~client ~sw ~port q w =
    ignore
      (F.submit fe ~key:(F.key_of ~client ~sw ~port q) ~scope:(scope_of q) ~client ~sw
         ~port q ~waiter:w)
  in
  let reach scope = Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints in
  (* Two disjoint reach scopes at one point, the same scope at another
     point and an isolation query: nothing rides anything. *)
  submit ~client:0 ~sw:1 ~port:1 (reach (scope_b 1)) 0;
  submit ~client:0 ~sw:1 ~port:1 (reach (scope_b 2)) 1;
  submit ~client:0 ~sw:2 ~port:1 (reach (scope_b 1)) 2;
  submit ~client:0 ~sw:1 ~port:1 (Rvaas.Query.make Rvaas.Query.Isolation) 3;
  check
    Alcotest.(list int)
    "one entry per query, in arrival order" [ 0; 1; 2; 3 ]
    (List.concat_map (fun e -> e.F.e_waiters) (F.flush fe));
  let s = F.stats fe in
  check Alcotest.int "entries" 4 s.F.entries;
  check Alcotest.int "flushes" 1 s.F.flushes;
  check Alcotest.int "queue drained" 0 (F.queued fe);
  check Alcotest.(list int) "empty flush" [] (F.flush fe |> List.map (fun e -> e.F.e_client))

(* ---- unit: subsumption queue — submit-time attach and flush fold ---- *)

let test_subsumption_queue () =
  let fe : int F.t = F.create (F.coalescing ()) in
  let submit ~client ~sw ~port ~scope q w =
    ignore (F.admit fe ~client ~now:0.0);
    F.submit fe ~key:(F.key_of ~client ~sw ~port q) ~scope ~client ~sw ~port q
      ~waiter:w
  in
  let broad_scope = scope_a () in
  let narrow_scope = scope_b 7 in
  let broad = Rvaas.Query.make ~scope:broad_scope Rvaas.Query.Reachable_endpoints in
  let narrow = Rvaas.Query.make ~scope:narrow_scope Rvaas.Query.Reachable_endpoints in
  (* Broad first: the narrower scope attaches at submit time. *)
  check Alcotest.bool "broad opens the queue" true
    (submit ~client:0 ~sw:1 ~port:1 ~scope:broad_scope broad 0 = `Queued `First);
  check Alcotest.bool "contained scope subsumed" true
    (submit ~client:1 ~sw:1 ~port:1 ~scope:narrow_scope narrow 1 = `Subsumed);
  (* An identical narrower question shares the existing slice: equal
     scopes make it a plain waiter, counted as coalesced. *)
  check Alcotest.bool "identical narrow shares the slice" true
    (submit ~client:2 ~sw:1 ~port:1 ~scope:narrow_scope narrow 2 = `Coalesced);
  (* A different injection point has no container. *)
  check Alcotest.bool "other point queued" true
    (submit ~client:0 ~sw:2 ~port:1 ~scope:narrow_scope narrow 3 = `Queued `Later);
  let entries = F.flush fe in
  check Alcotest.int "two computations" 2 (List.length entries);
  let at_shared = List.filter (fun e -> e.F.e_sw = 1) entries in
  check Alcotest.int "one computation at the shared point" 1 (List.length at_shared);
  let e = List.hd at_shared in
  check Alcotest.int "one slice riding it" 1 (List.length e.F.e_slices);
  check
    Alcotest.(list int)
    "slice waiters newest first" [ 2; 1 ]
    (List.hd e.F.e_slices).F.sl_waiters;
  (* Narrow-before-broad: submit's forward scan cannot catch it, the
     flush-time fold does. *)
  check Alcotest.bool "narrow reopens the queue" true
    (submit ~client:0 ~sw:1 ~port:1 ~scope:narrow_scope narrow 4 = `Queued `First);
  check Alcotest.bool "broad queued after" true
    (submit ~client:0 ~sw:1 ~port:1 ~scope:broad_scope broad 5 = `Queued `Later);
  (match F.flush fe with
  | [ leader ] ->
    check Alcotest.(list int) "broad leads the fold" [ 5 ] leader.F.e_waiters;
    check Alcotest.int "narrow folded as slice" 1 (List.length leader.F.e_slices)
  | _ -> Alcotest.fail "expected one folded computation");
  let st = F.stats fe in
  check Alcotest.int "subsumed counted" 2 st.F.subsumed;
  check Alcotest.int "coalesced counted" 1 st.F.coalesced;
  check (Alcotest.float 1e-9) "subsume rate" (2.0 /. 6.0) (F.subsume_rate fe)

(* ---- system helpers ---- *)

let spec_with topo f = f (Workload.Scenario.default_spec topo)

let first_point (s : Workload.Scenario.t) =
  List.hd (Rvaas.Verifier.access_points (Netsim.Net.topology s.net))

let ip_of (s : Workload.Scenario.t) ~host =
  (Option.get (Sdnctl.Addressing.host s.addressing ~host)).Sdnctl.Addressing.ip

let client_of (s : Workload.Scenario.t) ~host =
  (Option.get (Sdnctl.Addressing.host s.addressing ~host)).Sdnctl.Addressing.client

let settle s =
  Workload.Scenario.run s ~until:(Netsim.Sim.now (Netsim.Net.sim s.net) +. 1.0)

(* ---- system: N identical in-flight queries cost one computation ---- *)

let test_service_coalescing () =
  let topo = Workload.Topogen.linear p 4 in
  let s =
    Workload.Scenario.build
      (spec_with topo (fun d -> { d with frontend = F.coalescing () }))
  in
  let pt = first_point s in
  let client = client_of s ~host:pt.Rvaas.Verifier.host in
  let ip = ip_of s ~host:pt.Rvaas.Verifier.host in
  let q = Rvaas.Query.make ~scope:(scope_a ()) Rvaas.Query.Reachable_endpoints in
  for i = 1 to 8 do
    Rvaas.Service.inject_query s.service ~client ~nonce:(Printf.sprintf "fan-%d" i)
      ~sw:pt.Rvaas.Verifier.sw ~port:pt.Rvaas.Verifier.port ~ip q
  done;
  settle s;
  let fs = Rvaas.Service.frontend_stats s.service in
  check Alcotest.int "one computation" 1 fs.F.entries;
  check Alcotest.int "seven absorbed" 7 fs.F.coalesced;
  check (Alcotest.float 1e-9) "coalesce rate 7/8" (7.0 /. 8.0)
    (Rvaas.Service.coalesce_rate s.service);
  (* Every requester still got its own signed answer under its own
     nonce, and nothing leaked. *)
  check Alcotest.int "eight answers" 8 (Rvaas.Service.stats s.service).answers_sent;
  check Alcotest.int "no open queries" 0 (Rvaas.Service.open_query_count s.service);
  check Alcotest.int "no pending probes" 0 (Rvaas.Service.pending_probe_count s.service)

(* ---- system: the throttle verdict is a signed answer ---- *)

let test_service_throttle_signed () =
  let topo = Workload.Topogen.linear p 4 in
  let s =
    Workload.Scenario.build
      (spec_with topo (fun d ->
           {
             d with
             frontend = F.coalescing ~limits:{ F.rate = 0.01; burst = 2.0 } ();
           }))
  in
  let ask () =
    Workload.Scenario.query_and_wait s ~host:0
      (Rvaas.Query.make ~scope:(scope_a ()) Rvaas.Query.Reachable_endpoints)
      ~timeout:2.0
  in
  (* The burst passes untouched... *)
  (match (ask (), ask ()) with
  | Some o1, Some o2 ->
    check Alcotest.bool "burst not throttled" false
      (o1.Rvaas.Client_agent.answer.Rvaas.Query.throttled
      || o2.Rvaas.Client_agent.answer.Rvaas.Query.throttled)
  | _ -> Alcotest.fail "burst queries unanswered");
  (* ...the third is refused — with a verdict as unforgeable as an
     answer, not with silence. *)
  (match ask () with
  | None -> Alcotest.fail "throttle verdict never arrived"
  | Some o ->
    check Alcotest.bool "throttled flagged" true
      o.Rvaas.Client_agent.answer.Rvaas.Query.throttled;
    check Alcotest.bool "throttle verdict signed" true o.Rvaas.Client_agent.signature_ok;
    check Alcotest.bool "empty result set" true
      (o.Rvaas.Client_agent.answer.Rvaas.Query.endpoints = []));
  check Alcotest.int "throttle counted" 1
    (Rvaas.Service.stats s.service).queries_throttled;
  (* The noisy tenant's budget is its own: host 1 (the other client)
     still gets a clean answer. *)
  match
    Workload.Scenario.query_and_wait s ~host:1
      (Rvaas.Query.make ~scope:(scope_a ()) Rvaas.Query.Reachable_endpoints)
      ~timeout:2.0
  with
  | None -> Alcotest.fail "victim unanswered"
  | Some o ->
    check Alcotest.bool "victim not throttled" false
      o.Rvaas.Client_agent.answer.Rvaas.Query.throttled

(* ---- system: shared answers match per-query evaluation ---- *)

let endpoint_points (a : Rvaas.Query.answer) =
  List.sort compare
    (List.map
       (fun (ep : Rvaas.Query.endpoint_report) -> (ep.sw, ep.port))
       a.Rvaas.Query.endpoints)

let test_shared_parity () =
  let topo = Workload.Topogen.linear p 5 in
  let scopes s =
    [ scope_b (ip_of s ~host:2); scope_b (ip_of s ~host:4); scope_a () ]
  in
  (* Reference: the same questions evaluated one by one through
     [Service.evaluate], which bypasses the front-end. *)
  let ref_s = Workload.Scenario.build (Workload.Scenario.default_spec topo) in
  (* Let the monitor complete a poll sweep: [evaluate] reads the
     believed configuration. *)
  settle ref_s;
  let pt = first_point ref_s in
  let expected =
    List.map
      (fun scope ->
        (* [evaluate] returns the probe list as its second component;
           the in-band answer reports exactly those endpoints. *)
        let _, probes =
          Rvaas.Service.evaluate ref_s.service
            ~client:(client_of ref_s ~host:pt.Rvaas.Verifier.host)
            ~sw:pt.Rvaas.Verifier.sw ~port:pt.Rvaas.Verifier.port
            (Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints)
        in
        List.sort compare
          (List.map (fun (ep : Rvaas.Verifier.endpoint) -> (ep.sw, ep.port)) probes))
      (scopes ref_s)
  in
  (* Subject: the same three queries sent back to back by one agent,
     sharing the settle tick's queue: the two single-destination scopes
     fold into the all-traffic computation as slices. *)
  let s =
    Workload.Scenario.build
      (spec_with topo (fun d -> { d with frontend = F.coalescing ~batch_window:0.002 () }))
  in
  settle s;
  let agent = Workload.Scenario.agent s ~host:pt.Rvaas.Verifier.host in
  let outcomes = ref [] in
  Rvaas.Client_agent.set_answer_callback agent (fun o -> outcomes := o :: !outcomes);
  let nonces =
    List.map
      (fun scope ->
        Rvaas.Client_agent.send_query agent
          (Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints))
      (scopes s)
  in
  settle s;
  check Alcotest.int "all three answered" 3 (List.length !outcomes);
  let fs = Rvaas.Service.frontend_stats s.service in
  check Alcotest.int "one computation answered all three" 1 fs.F.entries;
  check Alcotest.bool "flush ran" true (fs.F.flushes >= 1);
  List.iteri
    (fun i nonce ->
      let o =
        List.find
          (fun (o : Rvaas.Client_agent.outcome) ->
            String.equal o.answer.Rvaas.Query.nonce nonce)
          !outcomes
      in
      check Alcotest.bool "signed" true o.Rvaas.Client_agent.signature_ok;
      check
        Alcotest.(list (pair int int))
        (Printf.sprintf "query %d: shared = per-query verdict" i)
        (List.nth expected i)
        (endpoint_points o.Rvaas.Client_agent.answer))
    nonces;
  check Alcotest.int "no open queries" 0 (Rvaas.Service.open_query_count s.service)

(* ---- system: sliced answers equal direct evaluation (oracle) ---- *)

(* Reference evaluation: the eager-guard textbook verifier over the
   service's believed configuration, restricted like the service
   restricts ([effective_scope] = scope ∩ IP traffic). *)
let oracle_points (s : Workload.Scenario.t) (pt : Rvaas.Verifier.endpoint) scope =
  let snapshot = Rvaas.Monitor.snapshot s.monitor in
  let flows_of sw = Rvaas.Snapshot.flows snapshot ~sw in
  let r =
    Rvaas.Verifier_ref.reach ~flows_of (Netsim.Net.topology s.net)
      ~src_sw:pt.Rvaas.Verifier.sw ~src_port:pt.Rvaas.Verifier.port
      ~hs:(Hspace.Hs.inter scope (Rvaas.Verifier.ip_traffic_hs ()))
  in
  List.sort compare
    (List.map
       (fun ((ep : Rvaas.Verifier.endpoint), _) -> (ep.sw, ep.port))
       r.Rvaas.Verifier.endpoints)

(* Send a broad and a narrow query back to back from the same agent (so
   the settle tick sees both) and return their outcomes. *)
let subsume_round s (pt : Rvaas.Verifier.endpoint) ~broad ~narrow =
  let agent = Workload.Scenario.agent s ~host:pt.Rvaas.Verifier.host in
  let outcomes = ref [] in
  Rvaas.Client_agent.set_answer_callback agent (fun o -> outcomes := o :: !outcomes);
  let send scope =
    Rvaas.Client_agent.send_query agent
      (Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints)
  in
  let n_broad = send broad in
  let n_narrow = send narrow in
  settle s;
  let find n =
    List.find_opt
      (fun (o : Rvaas.Client_agent.outcome) ->
        String.equal o.answer.Rvaas.Query.nonce n)
      !outcomes
  in
  (find n_broad, find n_narrow)

(* Random subsumer/subsumee pairs: the broad scope is a union of
   destination-host cubes, the narrow scope one of those cubes — so
   containment holds by construction and the answers can be checked
   against [Verifier_ref] independently of the subsumption machinery.
   With [attack] set, an exfiltration rewrite taints the region and the
   service must fall back to per-query evaluation — same verdicts. *)
let prop_subsume_parity ?attack ~name () =
  let topo = Workload.Topogen.linear p 5 in
  let s =
    Workload.Scenario.build
      (spec_with topo (fun d ->
           { d with frontend = F.coalescing ~batch_window:0.002 () }))
  in
  (match attack with
  | Some a ->
    Sdnctl.Attack.launch s.net s.addressing ~conn:(Sdnctl.Provider.conn s.provider) a
  | None -> ());
  settle s;
  let pt = first_point s in
  QCheck2.Test.make ~name ~count:8
    QCheck2.Gen.(pair (int_range 1 31) (int_range 0 100))
    (fun (mask, pick) ->
      let subset = List.filter (fun h -> (mask lsr h) land 1 = 1) [ 0; 1; 2; 3; 4 ] in
      let broad =
        List.fold_left
          (fun acc h -> Hspace.Hs.union acc (scope_b (ip_of s ~host:h)))
          (Hspace.Hs.empty Hspace.Field.total_width)
          subset
      in
      let narrow = scope_b (ip_of s ~host:(List.nth subset (pick mod List.length subset))) in
      match subsume_round s pt ~broad ~narrow with
      | Some ob, Some on ->
        ob.Rvaas.Client_agent.signature_ok
        && on.Rvaas.Client_agent.signature_ok
        && endpoint_points ob.Rvaas.Client_agent.answer = oracle_points s pt broad
        && endpoint_points on.Rvaas.Client_agent.answer = oracle_points s pt narrow
      | _ -> false)

(* ---- system: the subsumption counters on the served path ---- *)

let test_service_subsume_fanin () =
  let topo = Workload.Topogen.linear p 4 in
  let s =
    Workload.Scenario.build
      (spec_with topo (fun d ->
           { d with frontend = F.coalescing ~batch_window:0.002 () }))
  in
  settle s;
  let pt = first_point s in
  (match subsume_round s pt ~broad:(scope_a ()) ~narrow:(scope_b (ip_of s ~host:2)) with
  | Some _, Some on ->
    check
      Alcotest.(list (pair int int))
      "sliced verdict equals direct evaluation"
      (oracle_points s pt (scope_b (ip_of s ~host:2)))
      (endpoint_points on.Rvaas.Client_agent.answer)
  | _ -> Alcotest.fail "subsumed round unanswered");
  let fs = Rvaas.Service.frontend_stats s.service in
  check Alcotest.int "one computation" 1 fs.F.entries;
  check Alcotest.int "narrow subsumed" 1 fs.F.subsumed;
  check Alcotest.int "nothing fell back" 0 fs.F.slice_fallbacks;
  check (Alcotest.float 1e-9) "subsume rate 1/2" 0.5
    (Rvaas.Service.subsume_rate s.service);
  check Alcotest.int "no open queries" 0 (Rvaas.Service.open_query_count s.service);
  check Alcotest.int "no pending probes" 0
    (Rvaas.Service.pending_probe_count s.service)

(* ---- system: an in-flight equal slice takes a repeat as a waiter ---- *)

let test_service_inflight_slice_join () =
  let topo = Workload.Topogen.linear p 4 in
  (* No settle tick: every query flushes on arrival, so the narrow
     questions meet the broad one in flight, not in the queue. *)
  let s =
    Workload.Scenario.build (spec_with topo (fun d -> { d with frontend = F.coalescing () }))
  in
  settle s;
  let pt = first_point s in
  let agent = Workload.Scenario.agent s ~host:pt.Rvaas.Verifier.host in
  let outcomes = ref [] in
  Rvaas.Client_agent.set_answer_callback agent (fun o -> outcomes := o :: !outcomes);
  let send scope =
    Rvaas.Client_agent.send_query agent
      (Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints)
  in
  let narrow = scope_b (ip_of s ~host:2) in
  let _ = send (scope_a ()) in
  let nonces = [ send narrow; send narrow ] in
  settle s;
  List.iter
    (fun n ->
      match
        List.find_opt
          (fun (o : Rvaas.Client_agent.outcome) ->
            String.equal o.answer.Rvaas.Query.nonce n)
          !outcomes
      with
      | Some o ->
        check Alcotest.bool "signed" true o.Rvaas.Client_agent.signature_ok;
        check
          Alcotest.(list (pair int int))
          "sliced verdict equals direct evaluation" (oracle_points s pt narrow)
          (endpoint_points o.Rvaas.Client_agent.answer)
      | None -> Alcotest.fail "narrow question unanswered")
    nonces;
  let fs = Rvaas.Service.frontend_stats s.service in
  check Alcotest.int "one computation" 1 fs.F.entries;
  check Alcotest.int "first narrow opens the slice" 1 fs.F.subsumed;
  check Alcotest.int "repeat joins it as a waiter" 1 fs.F.coalesced;
  check Alcotest.int "no open queries" 0 (Rvaas.Service.open_query_count s.service)

(* ---- system: rewrite taint falls back, counted, same verdicts ---- *)

let test_service_subsume_taint_fallback () =
  let topo = Workload.Topogen.linear p 4 in
  let s =
    Workload.Scenario.build
      (spec_with topo (fun d ->
           { d with frontend = F.coalescing ~batch_window:0.002 () }))
  in
  Sdnctl.Attack.launch s.net s.addressing ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Exfiltrate { victim_host = 2; attacker_host = 3 });
  settle s;
  let pt = first_point s in
  let narrow = scope_b (ip_of s ~host:2) in
  (match subsume_round s pt ~broad:(scope_a ()) ~narrow with
  | Some _, Some on ->
    check
      Alcotest.(list (pair int int))
      "fallback verdict equals direct evaluation" (oracle_points s pt narrow)
      (endpoint_points on.Rvaas.Client_agent.answer)
  | _ -> Alcotest.fail "tainted round unanswered");
  let fs = Rvaas.Service.frontend_stats s.service in
  check Alcotest.int "attach still counted" 1 fs.F.subsumed;
  check Alcotest.int "slice fell back" 1 fs.F.slice_fallbacks;
  check Alcotest.int "no open queries" 0 (Rvaas.Service.open_query_count s.service)

(* ---- system: a throttled query never enters the subsumption graph ---- *)

let test_throttled_never_subsumed () =
  let topo = Workload.Topogen.linear p 4 in
  let s =
    Workload.Scenario.build
      (spec_with topo (fun d ->
           {
             d with
             frontend =
               F.coalescing
                 ~limits:{ F.rate = 0.01; burst = 1.0 }
                 ~batch_window:0.05 ();
           }))
  in
  settle s;
  let pt = first_point s in
  let client = client_of s ~host:pt.Rvaas.Verifier.host in
  let ip = ip_of s ~host:pt.Rvaas.Verifier.host in
  let inject nonce scope =
    Rvaas.Service.inject_query s.service ~client ~nonce ~sw:pt.Rvaas.Verifier.sw
      ~port:pt.Rvaas.Verifier.port ~ip
      (Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints)
  in
  (* The broad query is admitted and queued; the narrower one — which
     would otherwise ride it as a slice — blows the budget and must be
     refused before any subsumption decision is made. *)
  inject "broad" (scope_a ());
  inject "narrow" (scope_b (ip_of s ~host:2));
  let fs = Rvaas.Service.frontend_stats s.service in
  check Alcotest.int "refused, not subsumed" 0 fs.F.subsumed;
  check Alcotest.int "throttle counted" 1 fs.F.throttled;
  check Alcotest.int "throttle answered" 1
    (Rvaas.Service.stats s.service).queries_throttled;
  settle s;
  check Alcotest.int "only the broad computation ran" 1 fs.F.entries;
  check Alcotest.int "still nothing subsumed" 0 fs.F.subsumed;
  check Alcotest.int "no open queries" 0 (Rvaas.Service.open_query_count s.service)

(* ---- system: a scope-hash collision never shares ---- *)

(* Two scopes whose [Hs.hash] values collide: A is all IPv4 traffic,
   B is IPv4 to 10.1.0.1 from a chosen source, with the cube word
   covering bits 186–216 solved (by inverting [Tern.hash]'s bijective
   word mixer) so the 63-bit hashes match.  From linear-4's first
   access point A reaches an endpoint and B reaches none, so a
   front-end that shares by hash hands one of them the other's
   verdict. *)
let collision_a =
  "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx0000000000010000xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"

let collision_b =
  "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx0000000000010000xxxxxxxxxxxx11010001000011000000000000000000100000000000000010000000010100xxx1xx1x11xxx1xx0x1xx010111x00xxxxxxxxxxxx"

let test_hash_collision_not_shared () =
  let a = Hspace.Hs.of_cube (Hspace.Tern.of_string collision_a)
  and b = Hspace.Hs.of_cube (Hspace.Tern.of_string collision_b) in
  check Alcotest.bool "precondition: hashes collide" true
    (Hspace.Hs.hash a = Hspace.Hs.hash b);
  check Alcotest.bool "precondition: different sets" false (Hspace.Hs.equal a b);
  List.iter
    (fun order ->
      let s =
        Workload.Scenario.build
          (spec_with (Workload.Topogen.linear p 4) (fun d ->
               { d with frontend = F.coalescing ~batch_window:0.002 () }))
      in
      settle s;
      let pt = first_point s in
      let direct scope =
        let _, probes =
          Rvaas.Service.evaluate s.service
            ~client:(client_of s ~host:pt.Rvaas.Verifier.host)
            ~sw:pt.Rvaas.Verifier.sw ~port:pt.Rvaas.Verifier.port
            (Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints)
        in
        List.sort compare
          (List.map (fun (ep : Rvaas.Verifier.endpoint) -> (ep.sw, ep.port)) probes)
      in
      check Alcotest.bool "precondition: different verdicts" false (direct a = direct b);
      let agent = Workload.Scenario.agent s ~host:pt.Rvaas.Verifier.host in
      let sent =
        List.map
          (fun scope ->
            ( scope,
              Rvaas.Client_agent.send_query agent
                (Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints) ))
          order
      in
      settle s;
      List.iter
        (fun (scope, nonce) ->
          match
            List.find_opt
              (fun (o : Rvaas.Client_agent.outcome) ->
                String.equal o.answer.Rvaas.Query.nonce nonce)
              (Rvaas.Client_agent.outcomes agent)
          with
          | None -> Alcotest.fail "query unanswered"
          | Some o ->
            check
              Alcotest.(list (pair int int))
              "shared verdict = per-query verdict" (direct scope)
              (endpoint_points o.Rvaas.Client_agent.answer))
        sent)
    [ [ a; b ]; [ b; a ] ]

(* ---- system: a snapshot change stops in-flight riders ---- *)

let test_snapshot_change_stops_riders () =
  let s =
    Workload.Scenario.build
      {
        (Workload.Scenario.default_spec
           (Workload.Topogen.fat_tree Workload.Topogen.default_params ~k:4))
        with
        clients = 2;
        isolation = true;
        frontend = F.coalescing ();
      }
  in
  settle s;
  let sim = Netsim.Net.sim s.net in
  let step () = Workload.Scenario.run s ~until:(Netsim.Sim.now sim +. 0.0001) in
  let agent = Workload.Scenario.agent s ~host:0 in
  (* A muted asker never answers its own auth challenge, so the first
     computation stays in flight until the auth timeout. *)
  Rvaas.Client_agent.set_mute agent true;
  let pt =
    List.find
      (fun (ep : Rvaas.Verifier.endpoint) -> ep.host = 0)
      (Rvaas.Verifier.access_points (Netsim.Net.topology s.net))
  in
  let iso = Rvaas.Query.make Rvaas.Query.Isolation in
  let direct () =
    let _, probes =
      Rvaas.Service.evaluate s.service ~client:0 ~sw:pt.Rvaas.Verifier.sw
        ~port:pt.Rvaas.Verifier.port iso
    in
    List.sort compare
      (List.map (fun (ep : Rvaas.Verifier.endpoint) -> (ep.sw, ep.port)) probes)
  in
  let before = direct () in
  ignore (Rvaas.Client_agent.send_query agent iso);
  let give_up = Netsim.Sim.now sim +. 1.0 in
  while Rvaas.Service.open_query_count s.service = 0 && Netsim.Sim.now sim < give_up do
    step ()
  done;
  (* The attacker (client 1's host) joins client 0's isolation domain
     while the first computation is still collecting auth replies. *)
  Sdnctl.Attack.launch s.net s.addressing ~conn:(Sdnctl.Provider.conn s.provider)
    (Sdnctl.Attack.Join { victim_client = 0; attacker_host = 1 });
  while Rvaas.Service.open_query_count s.service > 0 && direct () = before do
    step ()
  done;
  let after = direct () in
  check Alcotest.bool "precondition: the monitor saw the attack" true (after <> before);
  check Alcotest.int "precondition: first computation still in flight" 1
    (Rvaas.Service.open_query_count s.service);
  let nonce = Rvaas.Client_agent.send_query agent iso in
  settle s;
  match
    List.find_opt
      (fun (o : Rvaas.Client_agent.outcome) -> String.equal o.answer.Rvaas.Query.nonce nonce)
      (Rvaas.Client_agent.outcomes agent)
  with
  | None -> Alcotest.fail "second query unanswered"
  | Some o ->
    check Alcotest.int "did not ride the stale computation" 0
      (Rvaas.Service.frontend_stats s.service).F.coalesced;
    check
      Alcotest.(list (pair int int))
      "post-attack verdict" after (endpoint_points o.Rvaas.Client_agent.answer)

(* ---- system: sharing is the default serving path ---- *)

let test_default_spec_shares () =
  (* No front-end override: the scenario's default serves through the
     sharing rule, so an equal question arriving while the first is
     collecting auth replies rides it. *)
  let s = Workload.Scenario.build (Workload.Scenario.default_spec (Workload.Topogen.linear p 4)) in
  settle s;
  let pt = first_point s in
  let agent = Workload.Scenario.agent s ~host:pt.Rvaas.Verifier.host in
  let q = Rvaas.Query.make ~scope:(scope_a ()) Rvaas.Query.Reachable_endpoints in
  let nonces = [ Rvaas.Client_agent.send_query agent q; Rvaas.Client_agent.send_query agent q ] in
  settle s;
  let fs = Rvaas.Service.frontend_stats s.service in
  check Alcotest.int "second question rode the first" 1 fs.F.coalesced;
  check Alcotest.int "one computation" 1 fs.F.entries;
  let _, probes =
    Rvaas.Service.evaluate s.service
      ~client:(client_of s ~host:pt.Rvaas.Verifier.host)
      ~sw:pt.Rvaas.Verifier.sw ~port:pt.Rvaas.Verifier.port q
  in
  let expected =
    List.sort compare
      (List.map (fun (ep : Rvaas.Verifier.endpoint) -> (ep.sw, ep.port)) probes)
  in
  List.iter
    (fun nonce ->
      match
        List.find_opt
          (fun (o : Rvaas.Client_agent.outcome) ->
            String.equal o.answer.Rvaas.Query.nonce nonce)
          (Rvaas.Client_agent.outcomes agent)
      with
      | None -> Alcotest.fail "query unanswered"
      | Some o ->
        check Alcotest.bool "signed" true o.Rvaas.Client_agent.signature_ok;
        check
          Alcotest.(list (pair int int))
          "shared verdict = evaluate" expected
          (endpoint_points o.Rvaas.Client_agent.answer))
    nonces

let () =
  Alcotest.run "frontend"
    [
      ( "unit",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "token bucket" `Quick test_token_bucket;
          Alcotest.test_case "coalescing keys" `Quick test_coalescing_keys;
          Alcotest.test_case "flush is flat, arrival order" `Quick test_flush_flat;
          Alcotest.test_case "subsumption queue" `Quick test_subsumption_queue;
        ] );
      ( "service",
        [
          Alcotest.test_case "coalescing fan-in" `Quick test_service_coalescing;
          Alcotest.test_case "signed throttle verdict" `Quick
            test_service_throttle_signed;
          Alcotest.test_case "shared answers = per-query" `Quick test_shared_parity;
          Alcotest.test_case "subsumption fan-in" `Quick test_service_subsume_fanin;
          Alcotest.test_case "in-flight equal slice joins it" `Quick
            test_service_inflight_slice_join;
          Alcotest.test_case "taint fallback" `Quick
            test_service_subsume_taint_fallback;
          Alcotest.test_case "throttled never subsumed" `Quick
            test_throttled_never_subsumed;
          Alcotest.test_case "hash collision never shares" `Quick
            test_hash_collision_not_shared;
          Alcotest.test_case "snapshot change stops riders" `Quick
            test_snapshot_change_stops_riders;
          Alcotest.test_case "default spec shares in flight" `Quick
            test_default_spec_shares;
        ] );
      ( "subsume-parity",
        [
          QCheck_alcotest.to_alcotest
            (prop_subsume_parity ~name:"sliced = direct (compiled)" ());
          QCheck_alcotest.to_alcotest
            (prop_subsume_parity
               ~attack:(Sdnctl.Attack.Exfiltrate { victim_host = 2; attacker_host = 4 })
               ~name:"sliced = direct under taint (compiled)" ());
        ] );
    ]
