(** Deterministic pseudo-random number generation.

    All randomness in the project flows through this module so that every
    experiment is reproducible from a fixed seed.  The generator is
    xoshiro256** seeded through splitmix64, which gives high-quality streams
    and cheap stream splitting.

    The four state words are stored unboxed, so a draw allocates nothing
    beyond the boxed [int64] or [float] it returns to a caller in another
    module; {!Tensor.rand_normal} and the synthetic data fill their arrays
    at that cost.  Every stream below is pinned bit for bit by MD5 digests
    in the utility tests, for seeds including 0, a negative seed and
    [max_int], as are the probe batch and initial weights drawn from
    them. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. *)

val copy : t -> t
(** [copy t] duplicates the state without advancing [t]. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val gauss : t -> float
(** Standard normal deviate (Box-Muller). *)

val gauss_scaled : t -> mean:float -> std:float -> float
(** Normal deviate with the given mean and standard deviation. *)

val bool : t -> bool
(** Fair coin flip. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choice_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> 'a array -> 'a array
(** [sample t k arr] draws [k] elements without replacement
    ([k <= Array.length arr]). *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform permutation of [0 .. n-1]. *)
