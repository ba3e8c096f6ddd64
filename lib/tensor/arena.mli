(** A tensor arena: float buffers reused from one pass to the next.

    A forward-and-backward pass over a network allocates a fresh float
    array for every activation, gradient and im2col buffer, and the next
    pass over a network of the same shapes allocates them all again.  An
    arena keeps the buffers of the last pass and hands them out again,
    matched by length, so a warm pass allocates (almost) nothing.

    Buffers are taken only inside {!scoped}, and {!scoped} takes them all
    back when its function returns or raises.  A tensor from an arena is
    therefore valid until the end of the scope that took it: nothing taken
    from an arena may outlive that scope.  On that reset the arena keeps
    exactly the buffers the scope handed out and drops every other free
    buffer, so its footprint is bounded by one pass's working set.

    {!zeros}, {!uninit} and {!floats} take a [t option], the binding of a kernel's
    [?arena] argument: with [None] they allocate a fresh buffer.

    Not domain-safe: a scope owns the arena, and a second scope on a busy
    arena, nested or from another domain, raises [Invalid_argument]. *)

type t

val create : unit -> t
(** A fresh, empty arena. *)

val zeros : t option -> int array -> Tensor.t
(** [zeros arena shape] is a zero-filled tensor of [shape]: a buffer from
    [arena] refilled with [+0.0] (or a new one if none of that length is
    free), or [Tensor.zeros shape] without an arena.  It is for kernels
    that add into their output (scatters); a kernel that writes every cell
    takes {!uninit} and skips the fill.  Raises [Invalid_argument] if
    [arena] is not inside {!scoped}. *)

val uninit : t option -> int array -> Tensor.t
(** [uninit arena shape] is an uninitialized tensor of [shape], for an
    output whose every cell the kernel writes before anyone reads it: a
    buffer from [arena] as the last pass left it (or a new one), or a
    tensor over [Array.create_float] without an arena.  Raises
    [Invalid_argument] if [arena] is not inside {!scoped}. *)

val floats : t option -> int -> float array
(** [floats arena n] is uninitialized scratch of [n] floats, for buffers
    whose every cell is written before it is read (im2col columns and
    their gradient twins).  Without an arena it is [Array.create_float n].
    Raises [Invalid_argument] if [arena] is not inside {!scoped}. *)

val scoped : t -> (unit -> 'a) -> 'a
(** [scoped arena f] runs [f ()] as the arena's one pass.  Raises
    [Invalid_argument] if the arena is already in a scope.  When [f]
    returns or raises, every buffer taken since entry goes back to the
    free list, which drops all others. *)

type stats = {
  as_bytes : int;  (** bytes of buffers the arena holds *)
  as_reused : int;  (** takes served by a buffer from the free list *)
  as_fresh : int;  (** takes that allocated a new buffer *)
}

val stats : t -> stats
(** The arena's current size and its take counters. *)

val absorb : t -> stats -> unit
(** Add another arena's take counters into this one's (its size is
    untouched): how a parent context reports its workers' arenas. *)
