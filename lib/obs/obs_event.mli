(** Trace events and their JSONL encoding.

    An event is one line of a trace: a span boundary or a point-in-time
    note.  The encoding is a mapping onto {!Json}: fixed field order,
    compact output and the shortest number that reads back to the same
    bits, so encoding is deterministic and a round trip through
    {!to_json}/{!of_json} reproduces the event bit-for-bit (for finite
    times) — which is what lets tests diff whole traces across worker
    counts. *)

type kind =
  | Span_begin  (** a nested timed region opened *)
  | Span_end  (** the region closed; carries its duration *)
  | Note  (** a point event (e.g. a quarantined candidate) *)

type t = {
  e_kind : kind;
  e_name : string;  (** span or note name, e.g. ["fisher"] *)
  e_depth : int;  (** nesting depth of the span (0 = top level) *)
  e_t : float;  (** clock reading when the event was emitted *)
  e_dur_s : float option;  (** [Span_end] only: seconds inside the span *)
  e_detail : string option;  (** [Note] only: free-form payload *)
}

val span_begin : name:string -> depth:int -> t:float -> t
(** A span-open event. *)

val span_end : name:string -> depth:int -> t:float -> dur_s:float -> t
(** A span-close event carrying the span's duration. *)

val note : ?detail:string -> name:string -> depth:int -> t:float -> unit -> t
(** A point event at the current span depth. *)

val kind_name : kind -> string
(** Stable wire name: ["span_begin"], ["span_end"] or ["note"]. *)

val strip_times : t -> t
(** The event with [e_t] and [e_dur_s] zeroed — the worker-count-invariant
    "content" of the event, used to compare traces across runs. *)

val to_json : t -> string
(** One canonical JSON object, no trailing newline. *)

val of_json : string -> t option
(** Parse one line with {!Json.of_string}, which accepts whitespace and
    any field order but nothing outside RFC 8259; [None] on malformed
    JSON or a missing or mistyped [kind], [name], [depth] or [t].  An
    unknown field is ignored. *)

val json_string : string -> string
(** A JSON string literal: [Json.to_string (Json.String s)]. *)

val pp : Format.formatter -> t -> unit
(** Human-readable one-liner, indented two spaces per nesting level. *)
