(* The storage layer: recovery of controller state from the bytes on
   disk.  On query-distinct the store is the live HA journal's
   segmented mirror; the other workloads have no live journal, so the
   benchmark writes one holding the run's end state (an image of the
   believed view, every switch's polled table, and the open/close
   records of the run's first queries) and recovers that. *)

open World

type recovery = {
  recover_s : float;
      (** median [segment_s + journal_s], each recovery scaled to the
          steady reference host (see {!Util.reference_s}) *)
  raw_recover_s : float;  (** the same, unscaled *)
  segment_s : float;  (** median {!Support.Segment_store.recover_from_dir} *)
  journal_s : float;  (** median {!Rvaas.Journal.recover} *)
  attempts : int;
  digest_mismatches : int;  (** recoveries whose snapshot differs from the live one *)
  failures : int;  (** recoveries that found no decodable store *)
  entries : Support.Journal.entry list;  (** the recovered valid prefix *)
  written_bytes : int;
  synced_bytes : int;
  seals : int;
  sealed_deleted : int;
}

let segment_bytes = 32 * 1024

(* The run journal of a workload without a live one. *)
let write_run_journal ~dir (s : Sc.t) journalled =
  Util.rm_rf dir;
  let j = Rvaas.Journal.create () in
  let store =
    Support.Segment_store.attach
      ~config:{ Support.Segment_store.default_config with segment_bytes }
      (Rvaas.Journal.log j) ~dir
  in
  let snapshot = Rvaas.Monitor.snapshot (Sc.monitor s) in
  let at = sim_now s in
  let append r = Rvaas.Journal.append j ~at ~snapshot r in
  Rvaas.Journal.checkpoint j ~at ~snapshot;
  List.iter
    (fun sw -> append (Rvaas.Journal.Flows_polled { sw; flows = Rvaas.Snapshot.flows snapshot ~sw }))
    (Rvaas.Snapshot.switches snapshot);
  List.iter
    (fun (nonce, q) ->
      append
        (Rvaas.Journal.Query_opened
           {
             q_nonce = nonce;
             q_client = q.client;
             q_sw = q.pt.sw;
             q_port = q.pt.port;
             q_ip = Some q.ip;
             q_query = query_of q;
           });
      append (Rvaas.Journal.Query_closed { nonce }))
    journalled;
  Support.Journal.sync (Rvaas.Journal.log j);
  store

(* Recover [dir] at least [reps] times and until [min_s] seconds were
   spent (at most 4 x [reps] times); every recovery must rebuild exactly
   the live believed view ([live], a digest vector). *)
let recover ~dir ~store ~live ~reps ~min_s =
  Support.Segment_store.close store;
  let seg = ref [] and jr = ref [] and tot = ref [] and raw = ref [] in
  let mismatches = ref 0 and failures = ref 0 and entries = ref [] in
  let t0 = Util.now_s () and attempts = ref 0 in
  while !attempts < reps || (Util.now_s () -. t0 < min_s && !attempts < 4 * reps) do
    incr attempts;
    (* each recovery starts from a collected heap (untimed) *)
    Gc.full_major ();
    let r0 = Util.reference_s () in
    let log, ds =
      Trace.with_span "segment_store.recover" (fun () ->
          Util.time (fun () -> Support.Segment_store.recover_from_dir dir))
    in
    match log with
    | Error _ -> incr failures
    | Ok log ->
      let r, dj =
        Trace.with_span "journal.recover" (fun () ->
            Util.time (fun () -> Rvaas.Journal.recover log))
      in
      if Rvaas.Snapshot.digest_vector r.Rvaas.Journal.snapshot <> live then incr mismatches;
      let r1 = Util.reference_s () in
      entries := Support.Journal.valid_prefix log;
      seg := ds :: !seg;
      jr := dj :: !jr;
      tot := ((ds +. dj) *. Util.scale ((r0 +. r1) /. 2.0)) :: !tot;
      raw := (ds +. dj) :: !raw
  done;
  {
    recover_s = Util.median !tot;
    raw_recover_s = Util.median !raw;
    segment_s = Util.median !seg;
    journal_s = Util.median !jr;
    attempts = !attempts;
    digest_mismatches = !mismatches;
    failures = !failures;
    entries = !entries;
    written_bytes = Support.Segment_store.written_bytes store;
    synced_bytes = Support.Segment_store.synced_bytes store;
    seals = Support.Segment_store.seals store;
    sealed_deleted = Support.Segment_store.sealed_deleted store;
  }

let live_digest (s : Sc.t) = Rvaas.Snapshot.digest_vector (Rvaas.Monitor.snapshot (Sc.monitor s))

(* The tag of checkpoint records, learnt from the typed layer itself. *)
let checkpoint_tag =
  lazy
    (let j = Rvaas.Journal.create () in
     Rvaas.Journal.checkpoint j ~at:0.0 ~snapshot:(Rvaas.Snapshot.create ());
     (List.hd (Support.Journal.entries (Rvaas.Journal.log j))).tag)

let is_checkpoint (e : Support.Journal.entry) = String.equal e.tag (Lazy.force checkpoint_tag)

(* Counts the journal traffic of a drive: appends, encoded bytes,
   checkpoint images, and rolls (the typed layer rolls once per
   compaction). *)
type tap = {
  mutable appends : int;
  mutable bytes : int;
  mutable checkpoints : int;
  mutable rolls : int;
}

let tap (s : Sc.t) =
  let t = { appends = 0; bytes = 0; checkpoints = 0; rolls = 0 } in
  (match s.controller with
  | None -> ()
  | Some c ->
    Support.Journal.attach
      (Rvaas.Journal.log (Rvaas.Failover.journal c))
      {
        Support.Journal.on_append =
          (fun e ->
            t.appends <- t.appends + 1;
            t.bytes <- t.bytes + String.length (Support.Journal.encode_entry e);
            if is_checkpoint e then t.checkpoints <- t.checkpoints + 1);
        on_sync = ignore;
        on_roll = (fun () -> t.rolls <- t.rolls + 1);
        on_rewrite = ignore;
      });
  t
