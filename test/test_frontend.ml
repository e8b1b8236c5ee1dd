(* Multi-tenant front-end: admission, coalescing, batching.

   Unit level drives [Rvaas.Frontend] directly (it is protocol-free by
   design: waiters are plain ints here).  System level drives the
   served path — [Service.inject_query] for fan-in shape, real client
   agents for the signed throttle verdict and the batched-vs-per-query
   differential. *)

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
    F.create { F.limits; coalesce = true; batch_window; subsume = false }
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
      {
        F.limits = Some { F.rate = 1.0; burst = 2.0 };
        coalesce = false;
        batch_window = 0.0;
        subsume = false;
      }
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
  let open_fe : int F.t = F.create F.default_config in
  for _ = 1 to 50 do
    check Alcotest.bool "no limits: admitted" true (F.admit open_fe ~client:0 ~now:0.0)
  done

(* ---- unit: coalescing keys (observed through submit) ---- *)

let test_coalescing_keys () =
  let fe : int F.t = F.create (F.coalescing ()) in
  let submit ~client ~sw ~port q w =
    (* Mirror the service flow: admission first (no limits here — it
       only feeds the admitted counter the coalesce rate divides by). *)
    ignore (F.admit fe ~client ~now:0.0);
    F.submit fe ~key:(F.key_of ~client ~sw ~port q) ~client ~sw ~port q ~waiter:w
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
  let groups = F.flush fe in
  let leader = List.hd (List.hd groups) in
  check Alcotest.int "both waiters on the folded entry" 2
    (List.length leader.F.e_waiters);
  check (Alcotest.float 1e-9) "coalesce rate" (2.0 /. 6.0) (F.coalesce_rate fe);
  (* The flush cleared the coalescing table: the same key queues anew. *)
  check Alcotest.bool "post-flush key is fresh" true
    (submit ~client:0 ~sw:1 ~port:1 reach 6 = `Queued `First)

(* ---- unit: flush pools batchable entries per injection point ---- *)

let test_flush_batching () =
  let fe : int F.t = F.create (F.coalescing ()) in
  let submit ~client ~sw ~port q w =
    ignore (F.submit fe ~key:(F.key_of ~client ~sw ~port q) ~client ~sw ~port q ~waiter:w)
  in
  let reach scope = Rvaas.Query.make ~scope Rvaas.Query.Reachable_endpoints in
  (* Two differently-scoped reach queries at one point pool; a third at
     another point and an isolation query stay alone. *)
  submit ~client:0 ~sw:1 ~port:1 (reach (scope_b 1)) 0;
  submit ~client:0 ~sw:1 ~port:1 (reach (scope_b 2)) 1;
  submit ~client:0 ~sw:2 ~port:1 (reach (scope_b 1)) 2;
  submit ~client:0 ~sw:1 ~port:1 (Rvaas.Query.make Rvaas.Query.Isolation) 3;
  let groups = F.flush fe in
  check Alcotest.int "three evaluation groups" 3 (List.length groups);
  check
    Alcotest.(list int)
    "one pooled pair" [ 1; 1; 2 ]
    (List.sort compare (List.map List.length groups));
  (* The pooled group preserves arrival order. *)
  let pooled = List.find (fun g -> List.length g = 2) groups in
  check
    Alcotest.(list int)
    "pool in arrival order" [ 0; 1 ]
    (List.concat_map (fun e -> e.F.e_waiters) pooled);
  let s = F.stats fe in
  check Alcotest.int "entries" 4 s.F.entries;
  check Alcotest.int "batches" 1 s.F.batches;
  check Alcotest.int "batched" 2 s.F.batched;
  check Alcotest.int "flushes" 1 s.F.flushes;
  check Alcotest.int "queue drained" 0 (F.queued fe);
  (* A fallback returns the pooled pair to the per-entry column. *)
  F.note_fallback fe 2;
  check Alcotest.int "fallback unwinds batches" 0 s.F.batches;
  check Alcotest.int "fallback unwinds batched" 0 s.F.batched;
  check Alcotest.int "fallback counted" 2 s.F.batch_fallbacks;
  check Alcotest.(list (list int)) "empty flush" [] (F.flush fe |> List.map (List.map (fun e -> e.F.e_client)))

(* ---- unit: subsumption queue — submit-time attach and flush fold ---- *)

let test_subsumption_queue () =
  let fe : int F.t = F.create (F.coalescing ~subsume:true ()) in
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
  (* An identical narrower question shares the existing slice. *)
  check Alcotest.bool "identical narrow shares the slice" true
    (submit ~client:2 ~sw:1 ~port:1 ~scope:narrow_scope narrow 2 = `Subsumed);
  (* A different injection point has no container. *)
  check Alcotest.bool "other point queued" true
    (submit ~client:0 ~sw:2 ~port:1 ~scope:narrow_scope narrow 3 = `Queued `Later);
  let groups = F.flush fe in
  check Alcotest.int "two evaluation groups" 2 (List.length groups);
  let g = List.find (fun g -> (List.hd g).F.e_sw = 1) groups in
  check Alcotest.int "one computation at the shared point" 1 (List.length g);
  let e = List.hd g in
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
  | [ [ leader ] ] ->
    check Alcotest.(list int) "broad leads the fold" [ 5 ] leader.F.e_waiters;
    check Alcotest.int "narrow folded as slice" 1 (List.length leader.F.e_slices)
  | _ -> Alcotest.fail "expected one folded group");
  let st = F.stats fe in
  check Alcotest.int "subsumed counted" 3 st.F.subsumed;
  check (Alcotest.float 1e-9) "subsume rate" 0.5 (F.subsume_rate fe)

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

(* ---- system: batched answers match per-query evaluation ---- *)

let endpoint_points (a : Rvaas.Query.answer) =
  List.sort compare
    (List.map
       (fun (ep : Rvaas.Query.endpoint_report) -> (ep.sw, ep.port))
       a.Rvaas.Query.endpoints)

let test_batch_parity () =
  let topo = Workload.Topogen.linear p 5 in
  let scopes s =
    [ scope_b (ip_of s ~host:2); scope_b (ip_of s ~host:4); scope_a () ]
  in
  (* Reference: the same questions evaluated one by one on a service
     with the front-end off. *)
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
     pooled by the settle tick into one reach over the unioned scope. *)
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
  check Alcotest.bool "settle tick pooled them" true
    (fs.F.batched = 3 || fs.F.batch_fallbacks = 3);
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
        (Printf.sprintf "query %d: batched = per-query verdict" i)
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
           { d with frontend = F.coalescing ~batch_window:0.002 ~subsume:true () }))
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
           { d with frontend = F.coalescing ~batch_window:0.002 ~subsume:true () }))
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

(* ---- system: rewrite taint falls back, counted, same verdicts ---- *)

let test_service_subsume_taint_fallback () =
  let topo = Workload.Topogen.linear p 4 in
  let s =
    Workload.Scenario.build
      (spec_with topo (fun d ->
           { d with frontend = F.coalescing ~batch_window:0.002 ~subsume:true () }))
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
                 ~batch_window:0.05 ~subsume:true ();
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

let () =
  Alcotest.run "frontend"
    [
      ( "unit",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "token bucket" `Quick test_token_bucket;
          Alcotest.test_case "coalescing keys" `Quick test_coalescing_keys;
          Alcotest.test_case "flush batching" `Quick test_flush_batching;
          Alcotest.test_case "subsumption queue" `Quick test_subsumption_queue;
        ] );
      ( "service",
        [
          Alcotest.test_case "coalescing fan-in" `Quick test_service_coalescing;
          Alcotest.test_case "signed throttle verdict" `Quick
            test_service_throttle_signed;
          Alcotest.test_case "batch parity (compiled)" `Quick test_batch_parity;
          Alcotest.test_case "subsumption fan-in" `Quick test_service_subsume_fanin;
          Alcotest.test_case "taint fallback" `Quick
            test_service_subsume_taint_fallback;
          Alcotest.test_case "throttled never subsumed" `Quick
            test_throttled_never_subsumed;
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
