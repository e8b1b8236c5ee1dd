(* The benchmark's run logic: set-up, drive, output checks, recovery and —
   with tracing — replay, and the metric record. *)

open World

type workload = {
  name : string;
  setup : cfg -> unit -> setup;
  drive : cfg -> setup -> units:int -> drive;
  units_per_second : float;
      (** work units per second of [--seconds]: a run's work is fixed by
          (seed, seconds), sized to take about that long on the 2-core
          reference machine *)
  trace_units : int;  (** work of a traced drive *)
  live_store : string option;  (** the store directory of a live HA journal *)
  in_band : bool;  (** queries arrive as sealed in-band requests *)
}

let workloads (cfg : cfg) =
  [
    (* Why: most queries share a computation, so front-end, answer signing and delivery do the work. *)
    {
      name = "query-storm";
      setup = Storm.setup;
      drive = Storm.drive;
      units_per_second = 5.5;
      trace_units = 12;
      live_store = None;
      in_band = false;
    };
    (* Why: nothing is shared, so the per-query path and the journal do all the work. *)
    {
      name = "query-distinct";
      setup = Distinct.setup;
      drive = Distinct.drive;
      units_per_second = 3.5;
      trace_units = 10;
      live_store = Some (Distinct.store_dir cfg);
      in_band = true;
    };
    (* Why: Flow-Mod apply and monitor ingest dominate set-up, snapshot and plumbing updates the run. *)
    {
      name = "churn-soak";
      setup = Churn.setup;
      drive = Churn.drive;
      units_per_second = 1.0;
      trace_units = 4;
      live_store = None;
      in_band = true;
    };
  ]

(* ---- metric names: BENCHMARK.json lists exactly these ------------------ *)

let end_to_end =
  [
    ("setup_s", "s");
    ("answered_qps", "1/s");
    ("answer_wall_p95_ms", "ms");
    ("answer_sim_p50_ms", "ms");
    ("answer_sim_p99_ms", "ms");
    ("sim_s_per_wall_s", "ratio");
    ("peak_rss_mb", "MB");
    ("recover_s", "s");
  ]

let per_layer =
  [
    ("netsim.events", "count");
    ("netsim.events_per_wall_s", "1/s");
    ("netsim.run_busy_s", "s");
    ("netsim.run_self_s", "s");
    ("ofproto.flow_mods", "count");
    ("ofproto.setup_flow_mods", "count");
    ("ofproto.add_ns", "ns");
    ("ofproto.add_words", "words");
    ("monitor.observations", "count");
    ("monitor.observations_changed", "count");
    ("monitor.polls_sent", "count");
    ("monitor.events_seen", "count");
    ("snapshot.ingest_ns", "ns");
    ("snapshot.ingest_words", "words");
    ("snapshot.digest_ns", "ns");
    ("snapshot.rules", "count");
    ("snapshot.image_encode_ns", "ns");
    ("snapshot.image_decode_ns", "ns");
    ("plumbing.updates", "count");
    ("plumbing.updates_per_churn_event", "ratio");
    ("plumbing.source_compiles", "count");
    ("plumbing.stale_sources", "count");
    ("plumbing.recompiles", "count");
    ("plumbing.lookups", "count");
    ("plumbing.scoped_lookups", "count");
    ("plumbing.fallback_share", "ratio");
    ("plumbing.pool_warms", "count");
    ("plumbing.compile_s", "s");
    ("plumbing.update_ns", "ns");
    ("plumbing.reach_ns", "ns");
    ("plumbing.reach_words", "words");
    ("verifier.sweep_reach_ns", "ns");
    ("frontend.admitted", "count");
    ("frontend.share_coalesced", "ratio");
    ("frontend.share_subsumed", "ratio");
    ("frontend.share_computed", "ratio");
    ("frontend.throttled", "count");
    ("frontend.inject_ns", "ns");
    ("frontend.flush_ns", "ns");
    ("frontend.flush_words", "words");
    ("service.queries_received", "count");
    ("service.auth_requests_sent", "count");
    ("service.auth_retransmissions", "count");
    ("service.answers_sent", "count");
    ("service.auth_per_answer", "ratio");
    ("service.evaluate_ns", "ns");
    ("codec.encode_answer_ns", "ns");
    ("codec.decode_request_ns", "ns");
    ("codec.encode_auth_request_ns", "ns");
    ("codec.decode_auth_reply_ns", "ns");
    ("codec.decode_answer_ns", "ns");
    ("codec.decode_auth_request_ns", "ns");
    ("codec.encode_auth_reply_ns", "ns");
    ("codec.client_ns", "ns");
    ("journal.appends", "count");
    ("journal.append_ns", "ns");
    ("journal.checkpoints", "count");
    ("journal.compactions", "count");
    ("journal.compact_ns", "ns");
    ("journal.bytes_per_query", "bytes");
    ("segment_store.written_bytes", "bytes");
    ("segment_store.synced_bytes", "bytes");
    ("segment_store.seals", "count");
    ("segment_store.sealed_deleted", "count");
    ("segment_store.recover_s", "s");
    ("journal.recover_s", "s");
    ("workload.topogen_s", "s");
    ("workload.build_s", "s");
    ("workload.settle_s", "s");
    ("workload.churn_planned", "count");
    ("workload.churn_executed", "count");
    ("gc.minor_words", "words");
    ("gc.major_collections", "count");
    ("gc.minor_words_per_answer", "words");
    ("gc.minor_words_per_event", "words");
    ("split.ofproto_s", "s");
    ("split.snapshot_s", "s");
    ("split.plumbing_s", "s");
    ("split.frontend_s", "s");
    ("split.service_s", "s");
    ("split.codec_s", "s");
    ("split.client_s", "s");
    ("split.journal_s", "s");
    ("split.unattributed_s", "s");
    ("trace.drive_wall_s", "s");
    ("trace.untraced_drive_wall_s", "s");
    ("trace.overhead_share", "ratio");
  ]

(* ---- result ------------------------------------------------------------ *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  checks : (string * int * int) list;
  meta : (string * Util.json) list;
}

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let fresh_dir (cfg : cfg) name =
  let dir = Filename.concat cfg.tmpdir name in
  Util.rm_rf dir;
  dir

let prepare_world (cfg : cfg) w ~n =
  setup_repeated ~n
    ~before:(fun () -> Option.iter Util.rm_rf w.live_store)
    (w.setup cfg)

(* Recovery phase: the live store, or a run journal written now. *)
let recovery (cfg : cfg) w (st : setup) (d : drive) =
  let s = st.scenario in
  let live = Durable.live_digest s in
  let dir, store =
    match w.live_store with
    | Some dir ->
      (* a final checkpoint, as a controller writes before handing
         over, so the recovered tail does not depend on where the run
         stopped in the checkpoint cycle *)
      let j = Rvaas.Failover.journal (Sc.controller s) in
      Rvaas.Journal.checkpoint j ~at:(sim_now s) ~snapshot:(Rvaas.Monitor.snapshot (Sc.monitor s));
      Support.Segment_store.sync (Sc.store s);
      (dir, Sc.store s)
    | None ->
      let dir = fresh_dir cfg (w.name ^ "-run-journal") in
      (dir, Durable.write_run_journal ~dir s d.capture.journalled)
  in
  if cfg.tiny then Durable.recover ~dir ~store ~live ~reps:2 ~min_s:0.0
  else Durable.recover ~dir ~store ~live ~reps:7 ~min_s:3.0

let checks_of (d : drive) (r : Durable.recovery) =
  d.checks @ [ ("recovered_digest", r.attempts, r.digest_mismatches + r.failures) ]

let base_meta (cfg : cfg) w (st : setup) (d : drive) =
  [
    ("workload", Util.Str w.name);
    ("seed", Util.Int cfg.seed);
    ("ocaml", Util.Str Sys.ocaml_version);
    ("pool_size", Util.Int (Support.Pool.size (Support.Pool.global ())));
    ("trace", Util.Bool cfg.trace);
    ("input", Util.Obj (world_input st.scenario @ d.input));
  ]

let finish (d : drive) (r : Durable.recovery) checks metrics meta =
  {
    correct = List.for_all (fun (_, _, bad) -> bad = 0) checks;
    attempted = d.attempted + r.attempts;
    failed = d.failed + r.failures;
    metrics;
    checks;
    meta;
  }

(* The drive's wall-clock metrics over all its units.  With [scaled],
   each unit's wall time and the latencies of the answers delivered
   within it are first scaled to the steady reference host by the
   reference computation timed around the unit (see
   {!Util.reference_s}). *)
let wall_metrics ~scaled (d : drive) =
  let wall = ref 0.0 and sim = ref 0.0 and lat = ref [] in
  List.iter
    (fun g ->
      let k = if scaled then Util.scale g.seg_ref else 1.0 in
      wall := !wall +. (g.seg_wall *. k);
      sim := !sim +. g.seg_sim;
      List.iter
        (fun (at, ms) -> if at >= g.seg_from && at < g.seg_to then lat := (ms *. k) :: !lat)
        d.wall_lat)
    d.segments;
  [
    ("answered_qps", float_of_int (List.length !lat) /. !wall);
    (* The wall-clock tail only (the client's typical latency is the
       simulated one).  Not the median: on query-distinct journal
       compactions stall a large share of the queries in flight, the
       latencies are bimodal and the median sits near the edge between
       the modes (spread 0.19 over ten seeds, and
       0.15 on churn-soak).  Not p99: on churn-soak the p99 rides on the
       few queries that land on an event's re-derivation or a poll sweep
       and swings by half from seed to seed.  The whole drive's unscaled
       quantiles are in the metadata line. *)
    ("answer_wall_p95_ms", Util.quantile 0.95 !lat);
    ("sim_s_per_wall_s", !sim /. !wall);
  ]

(* Untraced run: every end-to-end metric. *)
let run_untraced (cfg : cfg) w =
  Trace.reset ~on:false;
  let st, setup_s, raw_setup_s = prepare_world cfg w ~n:(if cfg.tiny then 1 else 5) in
  let units =
    if cfg.tiny then 1 else max 1 (int_of_float (Float.round (cfg.seconds *. w.units_per_second)))
  in
  (* every drive starts from a compacted heap, not from set-up's garbage *)
  Gc.compact ();
  let d = w.drive cfg st ~units in
  let r = recovery cfg w st d in
  let q p xs = Util.quantile p xs in
  let wall_lat_ms = List.map snd d.wall_lat in
  let metrics =
    (("setup_s", setup_s) :: wall_metrics ~scaled:true d)
    @ [
        ("answer_sim_p50_ms", q 0.5 d.sim_lat_ms);
        ("answer_sim_p99_ms", q 0.99 d.sim_lat_ms);
        ("peak_rss_mb", Util.peak_rss_mb ());
        ("recover_s", r.recover_s);
      ]
  in
  let unscaled =
    (("setup_s", raw_setup_s) :: wall_metrics ~scaled:false d) @ [ ("recover_s", r.raw_recover_s) ]
  in
  let meta =
    base_meta cfg w st d
    @ [
        ("answers", Util.Int d.answered);
        ("latency_samples", Util.Int (List.length wall_lat_ms));
        ( "answer_wall_ms_quantiles",
          Util.Obj
            (List.map
               (fun p -> (Printf.sprintf "p%g" (100.0 *. p), Util.Num (q p wall_lat_ms)))
               [ 0.5; 0.75; 0.9; 0.95; 0.99; 0.999 ]) );
        ("work_units", Util.Int units);
        ("timed_units", Util.Int (List.length d.segments));
        ( "reference_s_median",
          Util.Num (Util.median (List.map (fun g -> g.seg_ref) d.segments)) );
        ("unscaled", Util.Obj (List.map (fun (k, v) -> (k, Util.Num v)) unscaled));
        ("drive_wall_s", Util.Num d.wall_s);
        ("drive_sim_s", Util.Num d.sim_s);
      ]
  in
  finish d r (checks_of d r) metrics meta

let plumbing_delta (a : counters) (b : counters) f =
  match (a.c_plumbing, b.c_plumbing) with Some x, Some y -> f y - f x | _ -> 0

(* Traced run: every per-layer metric. *)
let run_traced (cfg : cfg) w =
  let units = if cfg.tiny then 1 else w.trace_units in
  (* the same fixed work untraced, for the tracing overhead *)
  Trace.reset ~on:false;
  let untraced_wall =
    let st, _, _ = prepare_world cfg w ~n:1 in
    Gc.compact ();
    (w.drive cfg st ~units).wall_s
  in
  Trace.reset ~on:true;
  let st, _, _ = prepare_world cfg w ~n:1 in
  let s = st.scenario in
  let setup_flow_mods = (Netsim.Net.stats s.net).flow_mods in
  let hooks = install_hooks s in
  let tap = Durable.tap s in
  hooks.armed <- true;
  Gc.compact ();
  let c0 = counters s in
  let d = w.drive cfg st ~units in
  let c1 = counters s in
  hooks.armed <- false;
  let appends = tap.appends and tap_bytes = tap.bytes in
  let checkpoints = tap.checkpoints and compactions = tap.rolls in
  let r = recovery cfg w st d in
  Trace.enabled := false;
  (* replay kernels on this run's inputs *)
  let add = Replay.ofproto_add s in
  let ingest, ingest_view, digest, rules = Replay.snapshot_ingest s in
  let touched = Hashtbl.fold (fun sw () acc -> sw :: acc) hooks.touched [] |> List.sort compare in
  let compile_s, update, reach = Replay.plumbing s ~touched ~catalogue:d.capture.catalogue in
  let fs0 = c0.c_frontend and fs1 = c1.c_frontend in
  let admitted = fs1.admitted - fs0.admitted in
  let flushes = fs1.flushes - fs0.flushes in
  let flush =
    Replay.frontend s ~sequence:d.capture.sequence ~chunk:(max 1 (admitted / max 1 flushes))
  in
  let evaluate = Replay.evaluate s ~catalogue:(take 500 d.capture.catalogue) in
  let codec = Replay.codec s ~seed:cfg.seed ~capture:d.capture in
  let append = Replay.journal_append ~dir:(fresh_dir cfg (w.name ^ "-append")) r.entries in
  let compact = Replay.journal_compact r.entries in
  let image_encode, image_decode = Replay.snapshot_image s in
  (* counts *)
  let ss0 = c0.c_service and ss1 = c1.c_service in
  let received = ss1.queries_received - ss0.queries_received in
  let auth_sent = ss1.auth_requests_sent - ss0.auth_requests_sent in
  let replies = ss1.auth_replies_accepted - ss0.auth_replies_accepted in
  let answers_sent = ss1.answers_sent - ss0.answers_sent in
  let entries = fs1.entries - fs0.entries in
  let pd = plumbing_delta c0 c1 in
  let aside_lookups, aside_scoped, aside_fallbacks = d.aside_lookups in
  let updates = pd (fun p -> p.updates) and lookups = pd (fun p -> p.lookups) - aside_lookups in
  let source_compiles = pd (fun p -> p.source_compiles) in
  let events = c1.c_events - c0.c_events in
  let gc = Util.gc_delta c0.c_gc c1.c_gc in
  let run_busy, _, run_self = Trace.summary "netsim.run" in
  let n_points = Array.length (access_points s) in
  let journalled_queries =
    match w.live_store with Some _ -> d.attempted | None -> List.length d.capture.journalled
  in
  let journal_bytes =
    match w.live_store with Some _ -> tap_bytes | None -> r.written_bytes
  in
  let ns_s x n = x *. float_of_int n /. 1e9 in
  let splits =
    [
      ("split.ofproto_s", ns_s add.ns hooks.flow_mods);
      (* a poll reply replaces a whole switch view; a flow-monitor
         event folds in one rule *)
      ( "split.snapshot_s",
        ns_s ingest_view (c1.c_polls - c0.c_polls) +. ns_s ingest.ns (c1.c_events_seen - c0.c_events_seen) );
      ( "split.plumbing_s",
        ns_s update.ns updates +. ns_s reach.ns lookups
        +. (compile_s /. float_of_int (max 1 n_points) *. float_of_int source_compiles) );
      ("split.frontend_s", ns_s flush.ns admitted);
      ("split.service_s", ns_s (Float.max 0.0 (evaluate.ns -. reach.ns)) entries);
      ( "split.codec_s",
        ns_s codec.encode_answer.ns answers_sent
        +. ns_s codec.encode_auth_request.ns auth_sent
        +. ns_s codec.decode_auth_reply.ns replies
        +. if w.in_band then ns_s codec.decode_request.ns received else 0.0 );
      ( "split.client_s",
        ns_s codec.decode_answer.ns answers_sent
        +. ns_s codec.decode_auth_request.ns auth_sent
        +. ns_s codec.encode_auth_reply.ns auth_sent );
      (* compaction = recover + a fresh image; every checkpoint images
         the snapshot *)
      ( "split.journal_s",
        ns_s append.ns appends +. ns_s compact.ns compactions +. ns_s image_encode.ns checkpoints );
    ]
  in
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 splits in
  let metrics =
    [
      ("netsim.events", float_of_int events);
      ("netsim.events_per_wall_s", float_of_int events /. d.wall_s);
      ("netsim.run_busy_s", run_busy);
      ("netsim.run_self_s", run_self);
      ("ofproto.flow_mods", float_of_int hooks.flow_mods);
      ("ofproto.setup_flow_mods", float_of_int setup_flow_mods);
      ("ofproto.add_ns", add.ns);
      ("ofproto.add_words", add.words);
      ("monitor.observations", float_of_int hooks.observations);
      ("monitor.observations_changed", float_of_int hooks.observations_changed);
      ("monitor.polls_sent", float_of_int (c1.c_polls - c0.c_polls));
      ("monitor.events_seen", float_of_int (c1.c_events_seen - c0.c_events_seen));
      ("snapshot.ingest_ns", ingest.ns);
      ("snapshot.ingest_words", ingest.words);
      ("snapshot.digest_ns", digest.ns);
      ("snapshot.rules", float_of_int rules);
      ("snapshot.image_encode_ns", image_encode.ns);
      ("snapshot.image_decode_ns", image_decode.ns);
      ("plumbing.updates", float_of_int updates);
      ("plumbing.updates_per_churn_event", ratio updates d.churn_executed);
      ("plumbing.source_compiles", float_of_int source_compiles);
      ("plumbing.stale_sources", float_of_int (pd (fun p -> p.stale_sources)));
      ("plumbing.recompiles", float_of_int (pd (fun p -> p.recompiles)));
      ("plumbing.lookups", float_of_int lookups);
      ("plumbing.scoped_lookups", float_of_int (pd (fun p -> p.scoped_lookups) - aside_scoped));
      ("plumbing.fallback_share", ratio (pd (fun p -> p.fallback_sweeps) - aside_fallbacks) lookups);
      ("plumbing.pool_warms", float_of_int (pd (fun p -> p.pool_warms)));
      ("plumbing.compile_s", compile_s);
      ("plumbing.update_ns", update.ns);
      ("plumbing.reach_ns", reach.ns);
      ("plumbing.reach_words", reach.words);
      ("verifier.sweep_reach_ns", Trace.mean_ns "verifier.sweep_reach");
      ("frontend.admitted", float_of_int admitted);
      ("frontend.share_coalesced", ratio (fs1.coalesced - fs0.coalesced) admitted);
      ("frontend.share_subsumed", ratio (fs1.subsumed - fs0.subsumed) admitted);
      ("frontend.share_computed", ratio entries admitted);
      ("frontend.throttled", float_of_int (fs1.throttled - fs0.throttled));
      ("frontend.inject_ns", Trace.mean_ns "frontend.inject");
      ("frontend.flush_ns", flush.ns);
      ("frontend.flush_words", flush.words);
      ("service.queries_received", float_of_int received);
      ("service.auth_requests_sent", float_of_int auth_sent);
      ( "service.auth_retransmissions",
        float_of_int (ss1.auth_retransmissions - ss0.auth_retransmissions) );
      ("service.answers_sent", float_of_int answers_sent);
      ("service.auth_per_answer", ratio auth_sent answers_sent);
      ("service.evaluate_ns", evaluate.ns);
      ("codec.encode_answer_ns", codec.encode_answer.ns);
      ("codec.decode_request_ns", codec.decode_request.ns);
      ("codec.encode_auth_request_ns", codec.encode_auth_request.ns);
      ("codec.decode_auth_reply_ns", codec.decode_auth_reply.ns);
      ("codec.decode_answer_ns", codec.decode_answer.ns);
      ("codec.decode_auth_request_ns", codec.decode_auth_request.ns);
      ("codec.encode_auth_reply_ns", codec.encode_auth_reply.ns);
      ("codec.client_ns", Trace.mean_ns "client.receive");
      ("journal.appends", float_of_int appends);
      ("journal.append_ns", append.ns);
      ("journal.checkpoints", float_of_int checkpoints);
      ("journal.compactions", float_of_int compactions);
      ("journal.compact_ns", compact.ns);
      ("journal.bytes_per_query", ratio journal_bytes journalled_queries);
      ("segment_store.written_bytes", float_of_int r.written_bytes);
      ("segment_store.synced_bytes", float_of_int r.synced_bytes);
      ("segment_store.seals", float_of_int r.seals);
      ("segment_store.sealed_deleted", float_of_int r.sealed_deleted);
      ("segment_store.recover_s", r.segment_s);
      ("journal.recover_s", r.journal_s);
      ("workload.topogen_s", st.topogen_s);
      ("workload.build_s", st.build_s);
      ("workload.settle_s", st.settle_s);
      ("workload.churn_planned", float_of_int d.churn_planned);
      ("workload.churn_executed", float_of_int d.churn_executed);
      ("gc.minor_words", gc.minor_words);
      ("gc.major_collections", float_of_int gc.major_collections);
      ("gc.minor_words_per_answer", gc.minor_words /. float_of_int (max 1 d.answered));
      ("gc.minor_words_per_event", gc.minor_words /. float_of_int (max 1 events));
    ]
    @ splits
    @ [
        ("split.unattributed_s", d.wall_s -. attributed);
        ("trace.drive_wall_s", d.wall_s);
        ("trace.untraced_drive_wall_s", untraced_wall);
        ("trace.overhead_share", (d.wall_s /. untraced_wall) -. 1.0);
      ]
  in
  let meta =
    base_meta cfg w st d
    @ [ ("work_units", Util.Int units); ("spans", Util.Int (Util.Vec.length Trace.spans)) ]
  in
  finish d r (checks_of d r) metrics meta

let run (cfg : cfg) name =
  match List.find_opt (fun w -> String.equal w.name name) (workloads cfg) with
  | None -> invalid_arg ("unknown workload " ^ name)
  | Some w ->
    Util.mkdir_p cfg.tmpdir;
    (* build the reference computation's table before anything is timed *)
    ignore (Util.reference_s ());
    if cfg.trace then run_traced cfg w else run_untraced cfg w

let cleanup (cfg : cfg) = Util.rm_rf cfg.tmpdir

(* The record: one human-readable line per metric, a metadata line,
   then the result object as the last line. *)
let print ?(extra_meta = []) (cfg : cfg) r =
  let names = if cfg.trace then per_layer else end_to_end in
  List.iter
    (fun (name, _, bad) -> Printf.printf "check %-22s %s (%d failing)\n" name (if bad = 0 then "ok" else "FAILED") bad)
    r.checks;
  Printf.printf "ops %d  ops_failed %d\n" r.attempted r.failed;
  List.iter
    (fun (name, unit_) ->
      Printf.printf "%-34s %16.6g %s\n" name (List.assoc name r.metrics) unit_)
    names;
  (if cfg.trace then
     let traced = List.assoc "trace.drive_wall_s" r.metrics in
     let untraced = List.assoc "trace.untraced_drive_wall_s" r.metrics in
     Printf.printf "tracing overhead: %.3f s traced vs %.3f s untraced drive (%+.1f%%)\n" traced
       untraced (100.0 *. ((traced /. untraced) -. 1.0)));
  print_endline (Util.json_to_string (Util.Obj [ ("meta", Util.Obj (r.meta @ extra_meta)) ]));
  print_endline
    (Util.json_to_string
       (Util.Obj
          [
            ("correct", Util.Bool r.correct);
            ("attempted", Util.Int r.attempted);
            ("failed", Util.Int r.failed);
            ( "metrics",
              Util.Obj
                (List.map
                   (fun (name, unit_) ->
                     ( name,
                       Util.Obj
                         [ ("value", Util.Num (List.assoc name r.metrics)); ("unit", Util.Str unit_) ]
                     ))
                   names) );
          ]))
