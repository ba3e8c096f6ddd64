(** Structured error taxonomy for candidate evaluation.

    The search treats a failed candidate as data, not as a crash: every
    failure mode that used to escape as a raw [Invalid_argument] or
    [Failure] is classified here, so the search can quarantine the
    candidate, attribute the failure, and continue to a valid survivor. *)

type source =
  | Fisher_score  (** the Fisher Potential oracle ({!Fisher.score}) *)
  | Cost_model  (** the analytic hardware cost model *)
  | Plan_gen  (** candidate plan generation *)
  | Tensor_data  (** raw tensor contents *)

type t =
  | Invalid_plan of string  (** a plan inapplicable to its site *)
  | Shape_mismatch of string  (** arity / dimension disagreement *)
  | Non_finite of source  (** a NaN or infinity reached a ranking value *)
  | Injected_fault of string  (** a deliberate test-harness fault *)
  | Checkpoint_error of string  (** checkpoint serialization / IO failure *)
  | Io_error of string  (** an operating-system I/O failure (e.g. [Unix_error]) *)
  | Timed_out of string  (** a deadline expired before the work finished *)
  | Eval_failure of string  (** anything else recoverable *)

exception Fail of t
(** The exception carrying a structured error across evaluation code. *)

val fail : t -> 'a
(** [fail e] raises {!Fail}[ e]. *)

val invalid_plan : ('a, unit, string, 'b) format4 -> 'a
(** [invalid_plan fmt ...] fails with a formatted {!Invalid_plan}. *)

val shape_mismatch : ('a, unit, string, 'b) format4 -> 'a
(** [shape_mismatch fmt ...] fails with a formatted {!Shape_mismatch}. *)

val source_to_string : source -> string
(** Stable label for a failure source ("fisher-score", "cost-model", ...). *)

val class_name : t -> string
(** Short stable label for failure attribution ("invalid-plan",
    "non-finite:fisher-score", ...); the payload message is dropped. *)

val to_string : t -> string
(** Human-readable rendering: class label plus the payload message. *)

val pp : Format.formatter -> t -> unit
(** Formatter version of {!to_string}. *)

val of_exn : exn -> t option
(** Classify an exception: structured errors pass through, operating-system
    failures ([Unix.Unix_error], [Sys_error]) become {!Io_error}, the
    legacy stdlib escapes ([Invalid_argument], [Failure],
    [Division_by_zero], [Assert_failure]) are mapped into the taxonomy,
    anything else (e.g. [Out_of_memory], [Stack_overflow]) returns [None]
    and should keep propagating.  Classifying I/O failures is what lets a
    daemon quarantine one session instead of dying with it. *)

val transient : t -> bool
(** Whether a retry with backoff has a chance of succeeding: true for
    environmental failures ({!Io_error}, {!Injected_fault},
    {!Checkpoint_error}), false for deterministic candidate/request
    failures — and false for {!Timed_out}, whose deadline has already
    passed. *)

val guard : (unit -> 'a) -> ('a, t) result
(** [guard f] runs [f], catching every exception {!of_exn} can classify.
    Unclassified exceptions propagate. *)

val count_classes : ('a * t) list -> (string * int) list
(** Failure attribution: per-{!class_name} counts over a quarantine list,
    sorted by descending count then name. *)
