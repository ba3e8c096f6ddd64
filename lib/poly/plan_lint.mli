(** The plan language for schedule transformations: its syntax and its
    concrete semantics.

    A plan is a [;]-separated list of transformation steps, e.g.
    ["split@1:2;interchange@1,2;unroll@5:4"], applied left to right to a
    baseline schedule.  This module holds the step type, the parser and
    printer, and {!apply}, which runs a step through the real {!Poly}
    transformation.  The named NAS sequences ([Sequences.plans]) are
    written in it, as are the analyzer's [--plan] arguments.  Which steps
    are legal is decided in one place, the typing judgment
    [Plan_types.infer] (in [lib/analysis]); the linter [Plan_types.lint]
    is its projection onto concrete schedules. *)

type step =
  | Interchange of int * int  (** [interchange@I,J] — swap dimensions *)
  | Reorder of int list  (** [reorder@P0,P1,...] — permute dimensions *)
  | Split of int * int  (** [split@POS:FACTOR] — strip-mine in place *)
  | Tile of int * int  (** [tile@POS:FACTOR] — split and sink innermost *)
  | Fuse of int  (** [fuse@POS] — fuse with the next dimension *)
  | Unroll of int * int  (** [unroll@POS:FACTOR] *)
  | Vectorize of int  (** [vectorize@POS] *)
  | Parallelize of int  (** [parallelize@POS] *)
  | Group of int  (** [group@FACTOR] — neural grouping of co/ci *)
  | Bottleneck of string * int  (** [bottleneck@ITER:FACTOR] *)
  | Depthwise  (** [depthwise] — full grouping of co/ci *)

val of_string : string -> (step list, string) result
(** Parse a [;]-separated plan; the error names the offending step. *)

val to_string : step -> string
(** Render one step back to plan syntax. *)

val plan_to_string : step list -> string
(** Render a whole plan back to plan syntax. *)

val apply : Poly.t -> step -> Poly.t
(** Apply one step to a schedule.  Raises {!Poly.Illegal} exactly as the
    underlying transformation does; a factor-1 [split] or [tile] is the
    identity, but its position must still be in range. *)
