(** Integer divisors, the inverted image of a divisibility side
    condition: for [e >= 1], a factor [f > 1] satisfies [e mod f = 0]
    exactly when it is an element of [gt1 e]. *)

val gt1 : int -> int list
(** [gt1 e]: the divisors of [e] greater than 1, ascending; empty when
    [e <= 1]. *)
