(** RVaaS's believed view of the data-plane configuration.

    Maintained from flow-monitor events (passive) and flow-stats polls
    (active) by {!Monitor}; consumed by {!Verifier}.  Internally each
    switch view reuses {!Ofproto.Flow_table} so that add/delete
    semantics match the real switches exactly. *)

type t

val create : unit -> t

(** [apply_event t ~sw ~now event] folds a flow-monitor event in. *)
val apply_event : t -> sw:int -> now:float -> Ofproto.Message.monitor_event -> unit

(** [apply_flow_removed t ~sw ~now spec] folds a Flow-Removed (e.g.
    hard timeout) in. *)
val apply_flow_removed : t -> sw:int -> now:float -> Ofproto.Flow_entry.spec -> unit

(** [replace_flows t ~sw ~now specs] replaces the whole view of [sw]
    with a polled flow-stats reply. *)
val replace_flows : t -> sw:int -> now:float -> Ofproto.Flow_entry.spec list -> unit

(** [replace_meters t ~sw meters] replaces the believed meter table. *)
val replace_meters : t -> sw:int -> (int * Ofproto.Meter.band) list -> unit

(** [flows t ~sw] is the believed rule list of [sw] in priority order
    (empty when never heard of). *)
val flows : t -> sw:int -> Ofproto.Flow_entry.spec list

(** [meters t ~sw] is the believed meter list of [sw]. *)
val meters : t -> sw:int -> (int * Ofproto.Meter.band) list

(** [switches t] lists switches with a view, ascending. *)
val switches : t -> int list

(** [total_flows t] sums rule counts over all switches. *)
val total_flows : t -> int

(** [last_refresh t ~sw] is the time of the last update of [sw]'s view
    (0 when never updated). *)
val last_refresh : t -> sw:int -> float

(** [age t ~now] is [now] minus the oldest per-switch refresh time —
    the staleness bound reported to clients. *)
val age : t -> now:float -> float

(** [digest t] is a configuration fingerprint: equal digests ⇔ equal
    believed rule sets (used by the history store). *)
val digest : t -> int64

(** [switch_digest t ~sw] is a fingerprint of [sw]'s believed rule list
    alone (0 when never heard of).  Memoised per view and recomputed
    lazily after the next mutation of that switch, so querying it for
    every switch between reconfigurations is cheap — {!Monitor} compares
    it around each observation to decide whether the switch changed. *)
val switch_digest : t -> sw:int -> int64

(** [digest_vector t] is [(sw, switch_digest)] for every monitored
    switch, ascending: the per-switch configuration version vector. *)
val digest_vector : t -> (int * int64) list

(** [divergence t ~actual] counts switches whose believed rule set
    differs from [actual sw] (compared as multisets of specs). *)
val divergence : t -> actual:(int -> Ofproto.Flow_entry.spec list) -> int

(** {1 Binary persistence}

    Checkpoint images for the durable journal ({!Journal}): a restarted
    or standby controller restores to the exact pre-crash state —
    [of_bytes (to_bytes t)] preserves {!flows}, {!meters},
    {!last_refresh}, {!switch_digest}, {!digest_vector} and {!digest}. *)

val to_bytes : t -> string

val of_bytes : string -> (t, string) result
