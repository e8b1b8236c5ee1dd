(* Replay kernels: after a run, each layer's public functions are timed
   on inputs captured from that same run, reporting ns per call and
   minor words per call. *)

open World

type cost = { ns : float; words : float }

(* Minimum timed seconds per kernel (the tiny-scale test lowers it). *)
let min_seconds = ref 0.15

(* [kernel ~calls ~prepare run]: [prepare ()] builds fresh state
   (untimed), [run st] makes [calls] calls.  Repeated for at least
   [min_s] and 3 times; medians per call. *)
let kernel ?(min_s = !min_seconds) ?(max_reps = 200) ~calls ~prepare run =
  if calls = 0 then { ns = 0.0; words = 0.0 }
  else begin
    run (prepare ());
    let ns = ref [] and words = ref [] in
    let t_start = Util.now_s () and reps = ref 0 in
    while (!reps < 3 || Util.now_s () -. t_start < min_s) && !reps < max_reps do
      let st = prepare () in
      let w0 = Gc.minor_words () in
      let t0 = Util.now_ns () in
      run st;
      let t1 = Util.now_ns () in
      let w1 = Gc.minor_words () in
      ns := (float_of_int (t1 - t0) /. float_of_int calls) :: !ns;
      words := ((w1 -. w0) /. float_of_int calls) :: !words;
      incr reps
    done;
    { ns = Util.median !ns; words = Util.median !words }
  end

let switches (s : Sc.t) = Netsim.Topology.switches (Netsim.Net.topology s.net)

(* ofproto: the provider's rules added into fresh flow tables. *)
let ofproto_add (s : Sc.t) =
  let specs =
    List.map
      (fun sw ->
        List.filter_map
          (fun (_, msg) ->
            match msg with
            | Ofproto.Message.Flow_mod (Ofproto.Message.Add_flow spec) -> Some spec
            | _ -> None)
          (Sdnctl.Provider.mods_for_switch s.provider ~sw))
      (switches s)
  in
  let calls = List.fold_left (fun n l -> n + List.length l) 0 specs in
  kernel ~calls
    ~prepare:(fun () -> List.map (fun l -> (Ofproto.Flow_table.create (), l)) specs)
    (List.iter (fun (t, l) -> List.iter (fun spec -> Ofproto.Flow_table.add t spec ~now:0.0) l))

(* snapshot: the believed tables replaced into a fresh snapshot, per
   rule; the cost of one switch view is returned too (what one
   monitor observation pays). *)
let snapshot_ingest (s : Sc.t) =
  let snap = Rvaas.Monitor.snapshot (Sc.monitor s) in
  let views = List.map (fun sw -> (sw, Rvaas.Snapshot.flows snap ~sw)) (Rvaas.Snapshot.switches snap) in
  let ingest t = List.iter (fun (sw, specs) -> Rvaas.Snapshot.replace_flows t ~sw ~now:0.0 specs) views in
  let rules = Rvaas.Snapshot.total_flows snap in
  let per_rule = kernel ~calls:rules ~prepare:Rvaas.Snapshot.create ingest in
  let per_view = per_rule.ns *. float_of_int rules /. float_of_int (max 1 (List.length views)) in
  let digest =
    kernel ~calls:1
      ~prepare:(fun () ->
        let t = Rvaas.Snapshot.create () in
        ingest t;
        t)
      (fun t -> ignore (Rvaas.Snapshot.digest t))
  in
  (per_rule, per_view, digest, rules)

let believed_flows (s : Sc.t) =
  let snap = Rvaas.Monitor.snapshot (Sc.monitor s) in
  fun sw -> Rvaas.Snapshot.flows snap ~sw

let compiled (s : Sc.t) =
  let pl =
    Rvaas.Plumbing.compile ~pool:(Support.Pool.global ()) ~flows_of:(believed_flows s)
      (Netsim.Net.topology s.net)
  in
  Rvaas.Plumbing.warm ~pool:(Support.Pool.global ()) pl ~points:(injection_points s);
  pl

(* plumbing: a full compile + warm of every access point (seconds),
   update + one lookup through each touched switch, and the run's
   question catalogue looked up on a warm graph. *)
let plumbing (s : Sc.t) ~touched ~catalogue =
  let compile_s =
    Util.median (List.init 3 (fun _ -> snd (Util.time (fun () -> ignore (compiled s)))))
  in
  let pl = compiled s in
  let full = Hspace.Hs.full Hspace.Field.total_width in
  let through = Hashtbl.create 64 in
  List.iter
    (fun (sw, port) ->
      let r = Rvaas.Plumbing.reach pl ~src_sw:sw ~src_port:port ~hs:full in
      List.iter
        (fun t -> if not (Hashtbl.mem through t) then Hashtbl.replace through t (sw, port))
        r.Rvaas.Verifier.traversed)
    (injection_points s);
  let touched = if touched = [] then switches s else touched in
  let first = List.hd (injection_points s) in
  let update =
    kernel ~calls:(List.length touched) ~prepare:ignore (fun () ->
        List.iter
          (fun sw ->
            Rvaas.Plumbing.update pl ~sw;
            let src_sw, src_port = Option.value ~default:first (Hashtbl.find_opt through sw) in
            ignore (Rvaas.Plumbing.reach pl ~src_sw ~src_port ~hs:full))
          touched)
  in
  let reach =
    kernel ~calls:(List.length catalogue) ~prepare:ignore (fun () ->
        List.iter
          (fun q -> ignore (Rvaas.Plumbing.reach pl ~src_sw:q.pt.sw ~src_port:q.pt.port ~hs:q.scope))
          catalogue)
  in
  (compile_s, update, reach)

(* frontend: the recorded query sequence submitted into a fresh
   front-end with the service's configuration, flushed every [chunk]
   submissions (the run's mean flush size). *)
let frontend (s : Sc.t) ~sequence ~chunk =
  let config = Rvaas.Service.frontend_config (Sc.service s) in
  let items =
    List.map
      (fun q ->
        let query = query_of q in
        (Rvaas.Frontend.key_of ~client:q.client ~sw:q.pt.sw ~port:q.pt.port query, q, query))
      sequence
  in
  kernel ~calls:(List.length items)
    ~prepare:(fun () -> Rvaas.Frontend.create config)
    (fun fe ->
      List.iteri
        (fun i (key, q, query) ->
          ignore
            (Rvaas.Frontend.submit fe ~key ~scope:q.scope ~client:q.client ~sw:q.pt.sw ~port:q.pt.port
               query ~waiter:());
          if (i + 1) mod chunk = 0 then ignore (Rvaas.Frontend.flush fe))
        items;
      ignore (Rvaas.Frontend.flush fe))

(* service: per-query evaluation of the catalogue on the live service. *)
let evaluate (s : Sc.t) ~catalogue =
  let svc = Sc.service s in
  kernel ~calls:(List.length catalogue) ~prepare:ignore (fun () ->
      List.iter
        (fun q ->
          ignore
            (Rvaas.Service.evaluate svc ~client:q.client ~sw:q.pt.sw ~port:q.pt.port (query_of q)))
        catalogue)

type codec = {
  encode_answer : cost;
  decode_answer : cost;
  decode_request : cost;
  encode_auth_request : cost;
  decode_auth_request : cost;
  encode_auth_reply : cost;
  decode_auth_reply : cost;
}

(* codec: the run's answers, its questions as sealed requests, and its
   auth challenges (on workloads whose hosts are library agents the
   challenges are drawn in the service's own 15-hex-digit format). *)
let codec (s : Sc.t) ~seed ~(capture : capture) =
  let kp = s.service_keypair in
  let public = Cryptosim.Keys.public kp in
  let lookup_key client = Rvaas.Directory.key s.directory ~client in
  let tenant q = (host_info s q.pt.host).client in
  let key_of q = Option.get (lookup_key (tenant q)) in
  let answers = take 500 capture.answers in
  let questions = take 500 capture.catalogue in
  let challenges =
    match capture.challenges with
    | [] ->
      let rng = Support.Rng.create seed in
      List.init 500 (fun _ -> Printf.sprintf "%015x" (Support.Rng.bits rng))
    | cs -> take 500 cs
  in
  let hosts = Array.of_list questions in
  let signed = List.map (fun a -> Rvaas.Codec.encode_answer a ~signer:kp) answers in
  let requests =
    List.mapi
      (fun i q ->
        Rvaas.Codec.encode_request
          { Rvaas.Codec.client = tenant q; nonce = Printf.sprintf "r%d" i; query = query_of q }
          ~key:(key_of q) ~recipient:public)
      questions
  in
  let auth_requests = List.map (fun challenge -> Rvaas.Codec.encode_auth_request ~challenge ~signer:kp) challenges in
  let replier i = hosts.(i mod max 1 (Array.length hosts)) in
  let replies =
    if Array.length hosts = 0 then []
    else
      List.mapi
        (fun i challenge ->
          let q = replier i in
          Rvaas.Codec.encode_auth_reply ~client:(tenant q) ~challenge ~key:(key_of q))
        challenges
  in
  let each xs f = kernel ~calls:(List.length xs) ~prepare:ignore (fun () -> List.iter f xs) in
  {
    encode_answer = each answers (fun a -> ignore (Rvaas.Codec.encode_answer a ~signer:kp));
    decode_answer = each signed (fun p -> ignore (Rvaas.Codec.decode_answer p ~service_public:public));
    decode_request =
      each requests (fun p -> ignore (Rvaas.Codec.decode_request p ~keypair:kp ~lookup_key));
    encode_auth_request =
      each challenges (fun challenge -> ignore (Rvaas.Codec.encode_auth_request ~challenge ~signer:kp));
    decode_auth_request =
      each auth_requests (fun p -> ignore (Rvaas.Codec.decode_auth_request p ~service_public:public));
    encode_auth_reply =
      (if Array.length hosts = 0 then { ns = 0.0; words = 0.0 }
       else
         kernel ~calls:(List.length challenges) ~prepare:ignore (fun () ->
             List.iteri
               (fun i challenge ->
                 let q = replier i in
                 ignore (Rvaas.Codec.encode_auth_reply ~client:(tenant q) ~challenge ~key:(key_of q)))
               challenges));
    decode_auth_reply = each replies (fun p -> ignore (Rvaas.Codec.decode_auth_reply p ~lookup_key));
  }

(* journal: the recovered records appended to a fresh journal mirrored
   into a fresh segmented store, fsynced at every checkpoint record as
   the typed layer does; and one compaction of a journal holding them. *)
let journal_append ~dir entries =
  let items = List.map (fun e -> (e, Durable.is_checkpoint e)) entries in
  kernel ~min_s:(Float.min 0.1 !min_seconds) ~max_reps:10 ~calls:(List.length items)
    ~prepare:(fun () ->
      Util.rm_rf dir;
      let log = Support.Journal.create () in
      let store =
        Support.Segment_store.attach
          ~config:{ Support.Segment_store.default_config with segment_bytes = Durable.segment_bytes }
          log ~dir
      in
      (log, store))
    (fun (log, store) ->
      List.iter
        (fun ((e : Support.Journal.entry), ckpt) ->
          ignore (Support.Journal.append log ~at:e.at ~tag:e.tag ~payload:e.payload);
          if ckpt then Support.Journal.sync log)
        items;
      Support.Segment_store.close store)

let journal_compact entries =
  kernel ~calls:1
    ~prepare:(fun () ->
      let log = Support.Journal.create () in
      List.iter
        (fun (e : Support.Journal.entry) ->
          ignore (Support.Journal.append log ~at:e.at ~tag:e.tag ~payload:e.payload))
        entries;
      Rvaas.Journal.of_log log)
    (fun j -> Rvaas.Journal.compact j ~at:0.0)

(* snapshot: one checkpoint image of the believed view, encoded and
   decoded. *)
let snapshot_image (s : Sc.t) =
  let snap = Rvaas.Monitor.snapshot (Sc.monitor s) in
  let image = Rvaas.Snapshot.to_bytes snap in
  ( kernel ~calls:1 ~prepare:ignore (fun () -> ignore (Rvaas.Snapshot.to_bytes snap)),
    kernel ~calls:1 ~prepare:ignore (fun () -> ignore (Rvaas.Snapshot.of_bytes image)) )
