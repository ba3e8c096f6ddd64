(** Named counters and histograms.

    A registry of integer counters (candidates generated, rejected,
    quarantined, cache hits, ...) and fixed-bucket duration histograms
    (per-phase span times, cost-model latency).  Registries are cheap,
    mutable and single-domain; a parallel evaluation gives each worker its
    own registry and {!merge}s them back in a deterministic order.

    Determinism contract: counter values are exact integers, so any merge
    order yields the same totals — counters whose increments are
    themselves deterministic (the [search.*] namespace) are bit-identical
    across worker counts.  Histogram counts, bucket counts, min and max
    merge exactly too; only [h_sum_s] (a float sum) may differ in the last
    ulp with merge order, and of course measured durations vary run to
    run. *)

type t
(** A metrics registry. *)

type histogram = {
  h_count : int;  (** observations recorded *)
  h_sum_s : float;  (** sum of observed values (seconds) *)
  h_min_s : float;  (** smallest observation ([infinity] when empty) *)
  h_max_s : float;  (** largest observation ([neg_infinity] when empty) *)
  h_buckets : int array;  (** per-bucket counts, see {!bucket_bounds} *)
}
(** An immutable histogram snapshot. *)

val bucket_bounds : float array
(** Upper bounds (seconds) of the histogram buckets: nine decades from
    1µs; the final bucket of {!histogram.h_buckets} is overflow. *)

val create : unit -> t
(** A fresh, empty registry. *)

val incr : t -> string -> unit
(** Add one to a counter (created at zero on first touch). *)

val add : t -> string -> int -> unit
(** Add [n] to a counter. *)

val set : t -> string -> int -> unit
(** Overwrite a counter — for end-of-run snapshots of externally
    accumulated values (cache stats, autotuner sweeps). *)

val counter : t -> string -> int
(** Current counter value; 0 if never touched. *)

val counters : t -> (string * int) list
(** Every counter, sorted by name. *)

val observe : t -> string -> float -> unit
(** Record one duration (seconds) into a histogram. *)

val histogram : t -> string -> histogram option
(** Snapshot of one histogram, if any observation was recorded. *)

val histograms : t -> (string * histogram) list
(** Every histogram snapshot, sorted by name. *)

val merge : t -> t -> unit
(** [merge t other] folds [other]'s counters and histograms into [t]
    (leaving [other] untouched) — the absorb path for per-worker
    registries. *)

val clear : t -> unit
(** Drop every counter and histogram. *)
