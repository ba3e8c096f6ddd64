(** A per-site optimization decision of the unified search.

    A plan couples the *neural* side of a transformation sequence (the
    structural {!Conv_impl.t} the site is rewritten to) with the *schedule*
    side (the {!Autotune.hints} that seed the autotuner's template, e.g. the
    pre-unroll of sequence 2 or the spatial split of sequence 1). *)

type t = {
  sp_impl : Conv_impl.t;
  sp_hints : Autotune.hints;
  sp_name : string;
}

val baseline : t
(** The untransformed site: [Full], no hints. *)

val make : ?hints:Autotune.hints -> ?name:string -> Conv_impl.t -> t

val pp : Format.formatter -> t -> unit
(** Prints the plan's name. *)
