(** A string-keyed memo table with a FIFO eviction bound and hit/miss/
    eviction counters.

    Both evaluation memos (the workload-cost cache and the Fisher-score
    cache) are instances of this structure, owned by an {!Eval_ctx.t}
    rather than by any module, so two contexts never share state and a
    long search cannot grow a memo without limit.  Values must be
    recomputable: eviction is value-transparent because every entry is a
    deterministic function of its key. *)

type 'a t

type stats = {
  cs_hits : int;
  cs_misses : int;
  cs_size : int;
  cs_capacity : int;
  cs_evictions : int;
}

val create : ?capacity:int -> unit -> 'a t
(** Fresh cache bounded to [capacity] entries (default 8192, clamped to at
    least 1), evicting oldest-inserted first. *)

val remember : 'a t -> string -> (unit -> 'a) -> 'a
(** [remember t key f] returns the cached value for [key], or computes
    [f ()], caches it and returns it.  An exception raised by [f] counts
    as a miss and caches nothing. *)

val find_opt : 'a t -> string -> 'a option
(** Lookup without touching the hit/miss counters. *)

val capacity : 'a t -> int
(** The entry bound fixed at {!create}. *)

val stats : 'a t -> stats
(** Snapshot of the hit/miss/eviction counters and current size — the
    source for the [cache.*] observability counters. *)

val absorb : 'a t -> stats -> unit
(** Fold another cache's hit/miss/eviction counters into this one's (size
    and capacity are untouched) — used to aggregate per-worker cache
    telemetry into the parent context after a parallel evaluation. *)

val entries : 'a t -> (string * 'a) list
(** Every cached binding in FIFO insertion order (oldest first) — the
    exportable content of the memo, for cross-session sharing and
    persistence.  Safe because entries are deterministic functions of
    their keys. *)

val merge_entries : 'a t -> (string * 'a) list -> int
(** Insert the bindings whose keys are absent (present keys win — both
    sides computed the same value), evicting FIFO to stay within
    capacity; returns the number inserted.  Counters are untouched: a
    merged entry is neither a hit nor a miss. *)
