(* query-distinct: a closed loop of sealed requests that never share.

   Why: no two in-flight questions can share a computation, so the
   per-query path does all the work — request decode, plumbing lookup,
   auth round, signing, journal append.  It is the only workload with
   a live storage layer.  The prediction for any front-end sharing
   change here is no change. *)

open World

(* Each agent's next query is scheduled from its answer callback; the
   loop advances the simulation in slices of this length. *)
let slice_sim = 0.05

let drain_sim = 1.0

(* Queries per unit of work. *)
let queries_per_unit = 100

(* Mean client think time between an answer and the next query: keeps
   the agents from marching in lockstep through the settle tick. *)
let think_sim = 0.002

(* The same fat-tree class at k = 4 (24 access points): the journal
   checkpoints at the default cadence, and every checkpoint and
   compaction images the whole snapshot, so a k = 6 world would spend
   its run in compactions. *)
let topo ~tiny ~seed () =
  jitter_links ~seed
    (Workload.Topogen.fat_tree
       { Workload.Topogen.default_params with hosts_per_switch = (if tiny then 1 else 3) }
       ~k:4)

(* One warm standby, a self-compacting journal, and the journal
   mirrored into a segmented store in [dir]; polls every 50 ms. *)
let spec ~seed ~dir topo =
  {
    (Storm.spec ~seed topo) with
    polling = Rvaas.Monitor.Periodic 0.05;
    ha = Some { Rvaas.Failover.default_config with standbys = 1; auto_compact = true };
    persist = Some { Sc.p_dir = dir; p_segment_bytes = 32 * 1024; p_encrypt = false };
  }

let store_dir (cfg : cfg) = Filename.concat cfg.tmpdir "query-distinct-store"

let setup (cfg : cfg) () =
  World.setup ~topo:(topo ~tiny:cfg.tiny ~seed:cfg.seed) ~spec:(spec ~seed:cfg.seed ~dir:(store_dir cfg)) ~step:0.01

let drive (cfg : cfg) (st : setup) ~units =
  let s = st.scenario in
  let svc = Sc.service s in
  let sim = Netsim.Net.sim s.net in
  let rng = Support.Rng.create ((cfg.seed * 6007) + 29) in
  let think_rng = Support.Rng.split rng in
  let mix = scope_mix s in
  let points = access_points s in
  let agents =
    Array.map (fun (p : Rvaas.Verifier.endpoint) -> Sc.agent s ~host:p.host) points
  in
  let l = ledger () in
  let by_nonce = Hashtbl.create 4096 in
  let limit = units * queries_per_unit in
  (* (wall, simulated, reference) time of every [queries_per_unit]-th
     answer: the boundaries of the drive's units *)
  let marks = ref [] in
  (* Every question is fresh: a mid or narrow scope at an exact
     destination port drawn per query, at the agent's own point. *)
  let send k =
    if issued l < limit then begin
      let klass = if Support.Rng.float rng 1.0 < 0.6 then `Mid else `Narrow in
      let q = mix rng ~at:k ~klass ~port:(Support.Rng.int rng 65536) in
      let qid = record l q ~due:(Netsim.Sim.now sim) in
      let nonce =
        Trace.with_span ~qid "frontend.inject" (fun () ->
            Rvaas.Client_agent.send_query agents.(k) (query_of q))
      in
      Hashtbl.replace by_nonce nonce qid
    end
  in
  Array.iteri
    (fun k agent ->
      Rvaas.Client_agent.set_answer_callback agent (fun (o : Rvaas.Client_agent.outcome) ->
          Trace.with_span "client.receive" (fun () ->
              let before = l.answered in
              deliver l
                (Option.value ~default:(-1) (Hashtbl.find_opt by_nonce o.answer.nonce))
                ~at:o.answered_at o.answer;
              if l.answered > before then begin
                if l.answered mod queries_per_unit = 0 then
                  marks := (now l.clock, Netsim.Sim.now sim, reference l.clock) :: !marks;
                Netsim.Sim.schedule sim
                  ~delay:(Support.Rng.exponential think_rng ~mean:think_sim)
                  (fun () -> send k)
              end)))
    agents;
  let sim0 = sim_now s in
  let wall0 = now l.clock in
  marks := [ (wall0, sim0, reference l.clock) ];
  Array.iteri
    (fun k _ ->
      Netsim.Sim.schedule_at sim ~time:(sim0 +. Support.Rng.float rng 0.005) (fun () -> send k))
    agents;
  (* the simulated-time cap only guards against a stalled loop *)
  let cap = sim0 +. 60.0 +. (0.01 *. float_of_int limit) in
  let slices = ref 0 in
  while issued l < limit && sim_now s < cap do
    run_until s (sim_now s +. slice_sim);
    incr slices
  done;
  let deadline = sim_now s +. drain_sim in
  while l.answered < issued l && sim_now s < deadline do
    run_until s (sim_now s +. 0.01)
  done;
  let wall_s = now l.clock -. wall0 in
  let sim_s = sim_now s -. sim0 in
  let checked, mismatches = parity l svc ~corrupt:cfg.corrupt in
  let wall_lat, sim_lat_ms = latencies l in
  let sequence = take 20_000 (Util.Vec.to_list l.questions) in
  let catalogue = take 2_000 (distinct sequence) in
  let oracle_checked, oracle_mismatches =
    oracle_check ~clock:l.clock s (List.map (fun q -> (q.pt, q.scope)) (take 7 catalogue))
  in
  let rec units_of = function
    | (w1, s1, r1) :: ((w0, s0, r0) :: _ as rest) ->
      segment ~from:w0 ~upto:w1 ~sim:(s1 -. s0) ~refs:(r0, r1) :: units_of rest
    | _ -> []
  in
  let attempted = issued l in
  {
    wall_s;
    sim_s;
    segments =
      (match List.rev (units_of !marks) with
      | [] ->
        let r = reference l.clock in
        [ segment ~from:wall0 ~upto:(wall0 +. wall_s) ~sim:sim_s ~refs:(r, r) ]
      | segs -> segs);
    attempted;
    failed = attempted - l.answered;
    answered = l.answered;
    wall_lat;
    sim_lat_ms;
    checks =
      [
        ("answer_vs_evaluate", checked, mismatches);
        ("compiled_vs_sweep", oracle_checked, oracle_mismatches);
        ("unmatched_answers", l.answered + l.unmatched, l.unmatched);
      ];
    aside_lookups = (0, 0, 0);
    churn_planned = 0;
    churn_executed = 0;
    input =
      [
        ("queries", Util.Int attempted);
        ("agents", Util.Int (Array.length agents));
        ("slices", Util.Int !slices);
      ];
    capture =
      { catalogue; sequence; answers = List.rev l.kept; challenges = []; journalled = [] };
  }
