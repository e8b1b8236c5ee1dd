(** Multi-tenant query front-end: admission and one sharing rule.

    At the scale the roadmap targets — millions of clients sharing one
    verification service — the query stream stops looking like the
    paper's interactive workload and starts looking like a flash
    crowd: most concurrent queries are duplicates or refinements of
    each other, and a single noisy tenant can monopolise the
    verifier.  This module is the pure serving-policy layer {!Service}
    puts in front of query evaluation:

    + {b admission} — a per-client token bucket ({!limits}: refill
      [rate] tokens/second up to [burst]).  An over-budget client gets
      a signed throttle answer (see {!Query.answer.throttled}) instead
      of an evaluation, so one tenant's storm cannot starve the rest
      (the paper's §IV-B.1 per-client accounting turned into a
      defence).
    + {b sharing} — one rule ({!ride}) decides, for the pre-flush
      queue here and for {!Service}'s in-flight computations alike,
      whether a query rides an open computation: same {!key}, and an
      equal effective scope (a plain waiter) or, for
      [Reachable_endpoints] only, a strictly contained one (a
      {!slice}, answered by intersecting the computation's arrival
      spaces with its scope — absent rewrites; the service falls back
      per query on taint).  Scopes are compared as sets, never by
      hash.  Each rider still receives its own signed answer under its
      own nonce at finalize.  Queries arriving within one settle tick
      ([batch_window]) share the queue before any of them evaluates.
      Sharing is the serving path: there is no per-query mode, and a
      question nothing covers simply opens its own computation.

    The module is deliberately free of protocol state: it queues
    generic waiter tokens (['w] is {!Service}'s requester record) and
    never touches the network, which keeps every policy decision unit
    testable without a simulator. *)

(** Token-bucket admission parameters: a client's bucket refills at
    [rate] tokens per second up to [burst]; each accepted query costs
    one token.  A fresh client starts with a full bucket. *)
type limits = { rate : float; burst : float }

type config = {
  limits : limits option;  (** admission control; [None] admits all *)
  batch_window : float;
      (** settle tick in seconds: queries arriving within the window
          are flushed together.  [0.] flushes synchronously (no added
          latency). *)
}

(** [coalescing ()] is the serving configuration: optional admission
    [limits] and a [batch_window] (default [0.]).  Sharing is not
    optional — every query goes through {!ride}.  [subsume] is
    accepted and ignored. *)
val coalescing :
  ?limits:limits -> ?batch_window:float -> ?subsume:bool -> unit -> config

(** Sharing key: query kind (plus [Path_length]'s destination),
    injection point, and — for the kinds whose evaluation depends on
    the requesting tenant ([Sources_reaching_me], [Isolation],
    [Fairness]) — the client.  The scope is not part of it. *)
type key

val key_of : client:int -> sw:int -> port:int -> Query.t -> key

(** [ride key ~scope ~over candidates] is the sharing rule: the
    computation among [candidates] (all under [key]) a query with
    effective [scope] rides, if any.  [over c] is [c]'s effective
    scope and whether it can take slices, or [None] when [c] takes no
    riders.  [`Equal c] when the scopes are equal — always for
    [Isolation] and [Fairness], which ignore their scope — tried
    before [`Slice c], the first [c] that strictly contains [scope]
    (only for [Reachable_endpoints]). *)
val ride :
  key ->
  scope:Hspace.Hs.t ->
  over:('c -> (Hspace.Hs.t * bool) option) ->
  'c list ->
  [ `Equal of 'c | `Slice of 'c ] option

(** A narrower query attached to a broader computation: at the
    subsumer's finalize, its arrival spaces are intersected with
    [sl_scope] and every slice waiter receives its own signed answer
    under its own nonce.  [sl_waiters] is newest-first. *)
type 'w slice = {
  sl_scope : Hspace.Hs.t;  (** effective scope of the sliced query *)
  sl_hash : int;  (** [Hs.hash sl_scope], a pre-filter for [Hs.equal] *)
  sl_query : Query.t;
  mutable sl_waiters : 'w list;
}

(** One queued computation: the leading query plus every waiter
    attached to it.  [e_waiters] is newest-first; the evaluation runs
    with the leader's coordinates; [e_slices] are the narrower
    questions riding this computation. *)
type 'w entry = {
  e_key : key;
  e_client : int;
  e_sw : int;
  e_port : int;
  e_query : Query.t;
  e_scope : Hspace.Hs.t;  (** the effective scope the service evaluates *)
  mutable e_waiters : 'w list;
  mutable e_slices : 'w slice list;
}

type stats = {
  mutable admitted : int;  (** queries past admission control *)
  mutable throttled : int;  (** queries rejected by the token bucket *)
  mutable coalesced : int;
      (** admitted queries that rode an equal question — a computation
          or a slice, queued or in flight — instead of costing one *)
  mutable subsumed : int;
      (** admitted queries that opened a slice of a broader
          computation (queued scan, flush-time fold, or in flight) *)
  mutable entries : int;  (** computations handed to the service *)
  mutable slice_fallbacks : int;
      (** slices re-run as their own computations because the
          subsumer's region was rewrite-tainted *)
  mutable flushes : int;
}

type 'w t

(** @raise Invalid_argument on [rate <= 0], [burst < 1] or a negative
    [batch_window]. *)
val create : config -> 'w t

val config : 'w t -> config

val stats : 'w t -> stats

(** [coalesce_rate t] is the fraction of admitted queries that rode an
    equal question (computation or slice) — [0.] when nothing was
    admitted. *)
val coalesce_rate : 'w t -> float

(** [subsume_rate t] is the fraction of admitted queries that opened
    a slice of a broader computation — [0.] when nothing was
    admitted. *)
val subsume_rate : 'w t -> float

(** [admit t ~client ~now] charges one token from [client]'s bucket
    ([now] in seconds drives the refill).  [false] means throttle:
    the caller owes the client a signed throttle answer. *)
val admit : 'w t -> client:int -> now:float -> bool

(** [note_coalesced t] records an in-flight plain waiter: the service
    attached a query to an already-evaluating computation with an
    equal scope (this module only sees the queue). *)
val note_coalesced : 'w t -> unit

(** [note_slice_fallback t n] records [n] slices the service re-ran as
    their own computations because the subsumer was rewrite-tainted. *)
val note_slice_fallback : 'w t -> int -> unit

(** [attach_slice t ~slice slices ~scope query ~waiter] is the
    slice-attach rule for a query that {!ride}s a container as a
    slice, queued or in flight: when one of the container's [slices]
    (each viewed through [slice]) has a scope equal to [scope], the
    waiter joins it — [`Joined], counted in [coalesced]; otherwise
    [`Fresh sl] is a new slice for the caller to add, counted in
    [subsumed]. *)
val attach_slice :
  'w t ->
  slice:('s -> 'w slice) ->
  's list ->
  scope:Hspace.Hs.t ->
  Query.t ->
  waiter:'w ->
  [ `Joined | `Fresh of 'w slice ]

(** [submit t ~key ~scope ~client ~sw ~port query ~waiter] enqueues a
    query whose effective scope is [scope].  {!ride} over the queued
    entries under [key] decides first:
    [`Coalesced] means the query became a waiter of an equal entry or
    slice, [`Subsumed] a fresh slice of a containing entry
    ({!attach_slice}).  Otherwise
    [`Queued `First] means it opened a new entry in a previously empty
    queue — the caller must now arrange a flush (immediately, or one
    [batch_window] later); [`Queued `Later] means the queue was
    already non-empty and a flush is already owed. *)
val submit :
  'w t ->
  key:key ->
  scope:Hspace.Hs.t ->
  client:int ->
  sw:int ->
  port:int ->
  Query.t ->
  waiter:'w ->
  [ `Coalesced | `Subsumed | `Queued of [ `First | `Later ] ]

(** [queued t] is the number of entries awaiting a flush. *)
val queued : 'w t -> int

(** [flush t] drains the queue into the computations to open, in
    arrival order.  A [Reachable_endpoints] entry whose scope another entry at its injection point strictly
    contains folds into that entry as a slice first (catching the
    narrow-before-broad arrival order {!submit} cannot), so the list —
    and the [entries] stat — reflect the computations actually handed
    out. *)
val flush : 'w t -> 'w entry list
