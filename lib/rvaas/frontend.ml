type limits = { rate : float; burst : float }

type config = { limits : limits option; batch_window : float }

(* [subsume] is accepted and ignored: perfbench/src/storm.ml still passes it. *)
let coalescing ?limits ?(batch_window = 0.0) ?subsume:_ () = { limits; batch_window }

(* The sharing key: everything except the scope that two questions must
   agree on to share a computation — query kind, [Path_length]'s
   destination, injection point and, for the kinds whose evaluation
   reads the requesting tenant, the client — plus how the kind treats
   its scope, decided here once.  The scope itself is compared as a
   set by [ride], never hashed into the key.  Immediate fields only:
   structural Hashtbl hashing/equality is exact. *)
type key = {
  k_kind : int;
  k_dst : int;  (* Path_length destination, 0 otherwise *)
  k_client : int;  (* -1 for client-independent kinds *)
  k_sw : int;
  k_port : int;
  k_scoped : bool;  (* false: evaluation ignores the scope *)
  k_sliceable : bool;  (* a contained scope can be sliced out *)
}

let key_of ~client ~sw ~port (query : Query.t) =
  let k_kind, k_dst, k_client =
    match query.kind with
    | Query.Reachable_endpoints -> (0, 0, -1)
    | Query.Sources_reaching_me -> (1, 0, client)
    | Query.Isolation -> (2, 0, client)
    | Query.Geo -> (3, 0, -1)
    | Query.Path_length { dst_ip } -> (4, dst_ip, -1)
    | Query.Fairness -> (5, 0, client)
    | Query.Transfer_summary -> (6, 0, -1)
  in
  (* Isolation and Fairness ignore their scope at evaluation: any two
     such questions under one key are the same question.  Only
     [Reachable_endpoints] answers can be cut from arrival spaces. *)
  let k_scoped, k_sliceable =
    match query.kind with
    | Query.Isolation | Query.Fairness -> (false, false)
    | Query.Reachable_endpoints -> (true, true)
    | _ -> (true, false)
  in
  { k_kind; k_dst; k_client; k_sw = sw; k_port = port; k_scoped; k_sliceable }

let ride key ~scope ~over candidates =
  let relation s =
    if not key.k_scoped then `Equal
    else if not (Hspace.Hs.subset scope s) then `Apart
    else if Hspace.Hs.subset s scope then `Equal
    else if key.k_sliceable then `Slice
    else `Apart
  in
  (* Equality before containment: an equal computation anywhere in the
     list beats the first (newest) container. *)
  let rec go slice = function
    | [] -> Option.map (fun c -> `Slice c) slice
    | c :: rest -> (
      match over c with
      | None -> go slice rest
      | Some (s, sliceable) -> (
        match relation s with
        | `Equal -> Some (`Equal c)
        | `Slice when sliceable && Option.is_none slice -> go (Some c) rest
        | `Slice | `Apart -> go slice rest))
  in
  go None candidates

(* A narrower query riding a broader computation: answered at the
   subsumer's finalize by intersecting its arrival spaces with
   [sl_scope].  Waiters are newest-first, like [e_waiters]. *)
type 'w slice = {
  sl_scope : Hspace.Hs.t;  (* effective scope of the sliced query *)
  sl_hash : int;  (* [Hs.hash sl_scope], pre-filter for [Hs.equal] *)
  sl_query : Query.t;
  mutable sl_waiters : 'w list;
}

type 'w entry = {
  e_key : key;
  e_client : int;
  e_sw : int;
  e_port : int;
  e_query : Query.t;
  e_scope : Hspace.Hs.t;  (* effective scope, supplied by the service *)
  mutable e_waiters : 'w list;
  mutable e_slices : 'w slice list;
}

type stats = {
  mutable admitted : int;
  mutable throttled : int;
  mutable coalesced : int;
  mutable subsumed : int;
  mutable entries : int;
  mutable slice_fallbacks : int;
  mutable flushes : int;
}

type bucket = { mutable tokens : float; mutable refilled_at : float }

type 'w t = {
  cfg : config;
  buckets : (int, bucket) Hashtbl.t;
  queue : 'w entry Queue.t;  (* arrival order, drained whole at flush *)
  index : (key, 'w entry list ref) Hashtbl.t;
      (* queued entries per sharing key (newest first); cleared with
         the queue *)
  stats : stats;
}

let create cfg =
  (match cfg.limits with
  | Some { rate; burst } ->
    if rate <= 0.0 then invalid_arg "Frontend.create: limits.rate must be positive";
    if burst < 1.0 then invalid_arg "Frontend.create: limits.burst must be >= 1"
  | None -> ());
  if cfg.batch_window < 0.0 then
    invalid_arg "Frontend.create: negative batch_window";
  {
    cfg;
    buckets = Hashtbl.create 16;
    queue = Queue.create ();
    index = Hashtbl.create 16;
    stats =
      {
        admitted = 0;
        throttled = 0;
        coalesced = 0;
        subsumed = 0;
        entries = 0;
        slice_fallbacks = 0;
        flushes = 0;
      };
  }

let config t = t.cfg

let stats t = t.stats

let coalesce_rate t =
  if t.stats.admitted = 0 then 0.0
  else float_of_int t.stats.coalesced /. float_of_int t.stats.admitted

let subsume_rate t =
  if t.stats.admitted = 0 then 0.0
  else float_of_int t.stats.subsumed /. float_of_int t.stats.admitted

let admit t ~client ~now =
  match t.cfg.limits with
  | None ->
    t.stats.admitted <- t.stats.admitted + 1;
    true
  | Some { rate; burst } ->
    let b =
      match Hashtbl.find_opt t.buckets client with
      | Some b -> b
      | None ->
        (* A client's first query always passes: fresh buckets start
           full, so admission only bites sustained over-rate use. *)
        let b = { tokens = burst; refilled_at = now } in
        Hashtbl.replace t.buckets client b;
        b
    in
    let elapsed = Float.max 0.0 (now -. b.refilled_at) in
    b.tokens <- Float.min burst (b.tokens +. (rate *. elapsed));
    b.refilled_at <- now;
    if b.tokens >= 1.0 then begin
      b.tokens <- b.tokens -. 1.0;
      t.stats.admitted <- t.stats.admitted + 1;
      true
    end
    else begin
      t.stats.throttled <- t.stats.throttled + 1;
      false
    end

let note_coalesced t = t.stats.coalesced <- t.stats.coalesced + 1

let note_slice_fallback t n = t.stats.slice_fallbacks <- t.stats.slice_fallbacks + n

(* The slice-attach rule, for queued and in-flight containers alike: a
   query whose scope equals an existing slice's joins it as one more
   waiter — equality before containment, counted in [coalesced]; a new
   scope gets a fresh slice, counted in [subsumed], for the caller to
   add.  A broad container can carry hundreds of slices, so the scan
   compares hashes first. *)
let attach_slice t ~slice slices ~scope query ~waiter =
  let h = Hspace.Hs.hash scope in
  let equal s =
    let sl = slice s in
    sl.sl_hash = h && Hspace.Hs.equal sl.sl_scope scope
  in
  match List.find_opt equal slices with
  | Some s ->
    let sl = slice s in
    sl.sl_waiters <- waiter :: sl.sl_waiters;
    note_coalesced t;
    `Joined
  | None ->
    t.stats.subsumed <- t.stats.subsumed + 1;
    `Fresh { sl_scope = scope; sl_hash = h; sl_query = query; sl_waiters = [ waiter ] }

let submit t ~key ~scope ~client ~sw ~port query ~waiter =
  let cell = Hashtbl.find_opt t.index key in
  let over e = Some (e.e_scope, true) in
  match Option.bind cell (fun cell -> ride key ~scope ~over !cell) with
  | Some (`Equal entry) ->
    entry.e_waiters <- waiter :: entry.e_waiters;
    note_coalesced t;
    `Coalesced
  | Some (`Slice entry) -> (
    match attach_slice t ~slice:Fun.id entry.e_slices ~scope query ~waiter with
    | `Joined -> `Coalesced
    | `Fresh sl ->
      entry.e_slices <- sl :: entry.e_slices;
      `Subsumed)
  | None ->
    let first = Queue.is_empty t.queue in
    let entry =
      {
        e_key = key;
        e_client = client;
        e_sw = sw;
        e_port = port;
        e_query = query;
        e_scope = scope;
        e_waiters = [ waiter ];
        e_slices = [];
      }
    in
    Queue.add entry t.queue;
    (match cell with
    | Some cell -> cell := entry :: !cell
    | None -> Hashtbl.replace t.index key (ref [ entry ]));
    `Queued (if first then `First else `Later)

let queued t = Queue.length t.queue

(* Flush-time fold under one sliceable key: a queued entry whose scope
   another entry strictly contains folds into that entry as a slice,
   waiters and all — the narrow-before-broad arrival order [submit]
   cannot catch.  Its leader now rides a broader computation (counted
   in [subsumed]); its other waiters stay counted in [coalesced].
   Strict containment is a strict partial order, so the kept entries
   are its maximal elements and, containment being transitive, each
   folded entry finds a direct container among them. *)
let fold_point t cell =
  let es = List.rev cell in
  let absorbs c e =
    c != e
    && Hspace.Hs.subset e.e_scope c.e_scope
    && not (Hspace.Hs.subset c.e_scope e.e_scope)
  in
  let folded, kept =
    List.partition (fun e -> List.exists (fun c -> absorbs c e) es) es
  in
  List.iter
    (fun e ->
      let c = List.find (fun c -> absorbs c e) kept in
      c.e_slices <-
        c.e_slices
        @ {
            sl_scope = e.e_scope;
            sl_hash = Hspace.Hs.hash e.e_scope;
            sl_query = e.e_query;
            sl_waiters = e.e_waiters;
          }
          :: e.e_slices;
      t.stats.subsumed <- t.stats.subsumed + 1;
      e.e_waiters <- [];
      e.e_slices <- [])
    folded

let flush t =
  if Queue.is_empty t.queue then []
  else begin
    t.stats.flushes <- t.stats.flushes + 1;
    Hashtbl.iter
      (fun key cell -> if key.k_sliceable then fold_point t !cell)
      t.index;
    Hashtbl.reset t.index;
    (* Folded entries gave their waiters away; the rest go out in
       arrival order. *)
    let out =
      Queue.fold (fun acc e -> if e.e_waiters = [] then acc else e :: acc) [] t.queue
    in
    Queue.clear t.queue;
    t.stats.entries <- t.stats.entries + List.length out;
    List.rev out
  end
