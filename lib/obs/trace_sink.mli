(** Trace event sinks: an in-memory buffer, optionally flushed to JSONL.

    Events are buffered in memory rather than streamed so that a parallel
    search can give each worker domain its own sink and {!append} them
    back in worker order after the join — the merged trace then lists
    events in candidate-index order, identical in content to a
    single-worker run.  The file (if any) is written once, at
    {!write}/[Obs.close] time. *)

type t
(** A sink: an append-only event buffer plus an optional JSONL
    destination. *)

val memory : unit -> t
(** A buffer-only sink (used by tests and worker forks). *)

val file : string -> t
(** A sink that {!write} will flush to [path] as JSONL, one event per
    line. *)

val emit : t -> Obs_event.t -> unit
(** Append one event. *)

val length : t -> int
(** Events buffered so far. *)

val events : t -> Obs_event.t list
(** The buffered events, oldest first. *)

val dest : t -> string option
(** The configured JSONL path, if any. *)

val append : t -> t -> unit
(** [append t other] adds [other]'s events after [t]'s — the absorb path
    for per-worker sinks ([other] is left untouched). *)

val write_to : t -> string -> unit
(** Write the buffer to an explicit path as JSONL (overwrites). *)

val write : t -> unit
(** Write to the sink's configured destination; no-op for memory sinks. *)

val load : string -> (Obs_event.t list, string) result
(** Read a JSONL trace back, skipping blank lines.  [Error] names the
    first line that is not a trace event by its 1-based number. *)
