(** BlockSwap [69], the paper's NAS baseline: Fisher-guided substitution of
    each transformable block from a fixed menu of cheaper convolutions,
    under a parameter budget.  Configurations are sampled at random within
    the budget and ranked by one-minibatch Fisher Potential — no training. *)

type result = {
  bs_impls : Conv_impl.t array;
  bs_model : Models.t;  (** rebuilt with the selected implementations *)
  bs_fisher : float;
  bs_params : int;  (** paper-scale parameter count *)
  bs_sampled : int;
}

val menu : Conv_impl.site -> Conv_impl.t list
(** The block menu of the NAS baseline: standard, grouped (2/4/8/16),
    bottlenecked (B=2) and depthwise-separable convolutions — no
    interleaved-sequence operators.  (Bottleneck factors beyond 2 measurably
    damage trained accuracy at our scale and are excluded from both menus;
    see DESIGN.md.) *)

val search :
  ?samples:int ->
  ?budget_ratio:float ->
  ?slack:float ->
  ctx:Eval_ctx.t ->
  rng:Rng.t ->
  probe:Train.batch ->
  Models.t ->
  result
(** [search ~rng ~probe model] samples configurations whose transformable
    parameter count is at most [budget_ratio] (default 0.45) of the
    original's and returns the Fisher-legal one with the highest clipped
    Fisher Potential (the same legality standard as the unified search).
    Fisher scores are memoized in [ctx], so resampled configurations pay
    neither a rebuild nor a probe pass. *)
