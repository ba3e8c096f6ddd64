(** The one JSON codec: a value type, a compact writer and a strict
    reader.  The trace format ([Obs_event]), the daemon's wire protocol
    ([Protocol]) and the search report ([Report]) are mappings over it.

    The writer is canonical: fields in the order given, no whitespace,
    and every finite number in the shortest of [%.15g]/[%.16g]/[%.17g]
    that reads back to the same bits, so
    [of_string (to_string v) = Ok v] bit-for-bit for every value whose
    numbers are finite.  The reader accepts RFC 8259 text and nothing
    else. *)

type t =
  | Null
  | Bool of bool
  | Number of float  (** JSON has one number type; so does this *)
  | String of string  (** raw bytes; [\u] escapes are decoded to UTF-8 *)
  | List of t list
  | Obj of (string * t) list  (** fields in order, duplicates kept *)

val max_depth : int
(** The deepest nesting of arrays and objects {!of_string} accepts (64). *)

val to_string : t -> string
(** Compact JSON text, no trailing newline.  Strings escape the double
    quote, the backslash, newline, carriage return and tab, and write
    other control bytes as [\u00xx]; bytes from 0x7f up pass through
    unchanged.  A non-finite number is written as [null].  A value nested
    deeper than {!max_depth} is written but does not read back. *)

val of_string : string -> (t, string) result
(** Parse exactly one JSON value, with optional surrounding whitespace.
    Rejected with a one-line reason: trailing bytes, numbers outside the
    RFC grammar ([+1], [.5], [01], [1.], [nan]), raw control bytes inside
    strings, unknown escapes, a [\u] without four hex digits, and nesting
    deeper than {!max_depth}.  A [\u] surrogate pair decodes to one UTF-8
    character and a lone surrogate to [?].  Total: never raises. *)

val member : string -> t -> t option
(** [member key v] is the value of [v]'s first field named [key]; [None]
    when the field is missing or [v] is not an object. *)
