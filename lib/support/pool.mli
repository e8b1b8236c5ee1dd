(** A fixed pool of worker domains for data-parallel sweeps.

    Header-space verification is embarrassingly parallel across query
    sources, so the hot paths ({!Rvaas.Verifier.sources_reaching}, the
    per-switch and per-source passes of {!Rvaas.Plumbing.compile} and
    {!Rvaas.Plumbing.warm}) partition their work over a pool of OCaml 5
    domains.  The pool is
    deliberately small and dependency-free:

    - [parmap] preserves input order, so parallel and sequential runs
      produce identical results;
    - exceptions raised by tasks are re-raised in the caller (the one
      with the smallest input index, matching what a sequential run
      would raise first);
    - a pool of size 1 — and any call made from inside a pool worker —
      degrades to a plain sequential map in the calling domain, so
      nested use cannot deadlock and tests can force determinism.

    Worker domains are spawned lazily on the first parallel call and
    are shared for the pool's lifetime; [shutdown] joins them.  A pool
    must only be driven from one domain at a time (the simulator and
    service are single-threaded; workers exist only inside a [parmap]
    call). *)

type t

(** [create size] makes a pool of total parallelism [size] ≥ 1.  The
    caller participates in the sweep, so [size - 1] worker domains are
    spawned (lazily).  @raise Invalid_argument when [size < 1]. *)
val create : int -> t

(** [size t] is the parallelism degree [create] was given. *)
val size : t -> int

(** [default_size ()] is the [RVAAS_JOBS] environment variable when set
    to a positive integer, otherwise [Domain.recommended_domain_count
    ()] — i.e. "use the hardware" unless told otherwise. *)
val default_size : unit -> int

(** [global ()] is a process-wide shared pool of [default_size ()],
    created on first use.  {!Rvaas.Service} uses it by default so that
    every service instance shares one set of worker domains (domains
    are an OS-level resource; spawning a pool per service would
    exhaust them). *)
val global : unit -> t

(** [parmap t f xs] maps [f] over [xs] using the pool.  Output index
    [i] holds [f xs.(i)]; ordering is deterministic regardless of
    scheduling. *)
val parmap : t -> ('a -> 'b) -> 'a array -> 'b array

(** [parmap_init t ~init ~f xs] is [parmap] with per-worker state:
    [init ()] runs at most once per participating domain (lazily, on
    its first task of this call) and its result is passed to every
    [f] invocation that domain executes.  Used to give each worker its
    own {!Rvaas.Verifier} context — their guard caches are not
    thread-safe to share.  An [init] that raises poisons its slot for
    the rest of the call (it is not re-run per task) and the exception
    is re-raised in the caller exactly like a task exception. *)
val parmap_init : t -> init:(unit -> 'c) -> f:('c -> 'a -> 'b) -> 'a array -> 'b array

(** [map_list t f xs] is [parmap] over a list. *)
val map_list : t -> ('a -> 'b) -> 'a list -> 'b list

(** [shutdown t] stops and joins the worker domains.  Subsequent calls
    on [t] degrade to sequential maps; shutdown is idempotent. *)
val shutdown : t -> unit
