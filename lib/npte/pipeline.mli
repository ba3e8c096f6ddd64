(** The unified compile pipeline: network + per-site plans -> predicted
    hardware latency (and size/MAC accounting) on a device.

    Every convolution workload of the (paper-scale) network is lowered to a
    loop nest, the plan's schedule hints are applied, the autotuner sweeps
    its parameter grid under the analytic cost model, and the best schedule's
    latency is kept.  Results are memoized on device and workload
    dimensions in the {!Eval_ctx.t} every entry point requires.  Because
    all memoization lives in that context, evaluation is reentrant and
    safe to run on per-domain context forks. *)

type site_eval = {
  se_site : Conv_impl.site;  (** paper-scale dimensions *)
  se_plan : Site_plan.t;
  se_cost_s : float;
}

type evaluated = {
  ev_latency_s : float;  (** whole-network latency, batch 1 *)
  ev_macs : int;  (** paper-scale MACs under the plans *)
  ev_params : int;  (** paper-scale convolution weights under the plans *)
  ev_sites : site_eval array;
  ev_fixed_cost_s : float;
}

val workload_cost :
  ctx:Eval_ctx.t -> ?hints:Autotune.hints -> Device.t -> Conv_impl.workload -> float
(** Autotuned latency of one convolution plus its fused elementwise
    (batch-norm + ReLU) pass.  Memoized in [ctx].  A non-finite cost-model output raises
    {!Nas_error.Fail}[ (Non_finite Cost_model)] (and is never cached). *)

val site_cost : ctx:Eval_ctx.t -> Device.t -> Conv_impl.site -> Site_plan.t -> float
(** Cost of one (paper-scale) site under a plan: the sum over the plan's
    realized convolutions.  Raises {!Nas_error.Fail}[ (Invalid_plan _)] on
    a plan inapplicable to the site. *)

type prepared
(** Candidate-independent evaluation state: the paper-scaled sites and the
    fixed-workload list with its MAC/param totals.  Building it is pure
    per-model work — hoist it out of a candidate loop with {!prepare} and
    reuse it for every {!evaluate_prepared} call. *)

val prepare : Models.t -> prepared
(** Precompute the model's scaled sites and fixed workloads once.  The
    result is immutable and safe to share across worker domains. *)

val evaluate_prepared :
  ctx:Eval_ctx.t -> Device.t -> prepared -> plans:Site_plan.t array -> evaluated
(** {!evaluate} against a {!prepared} model — bit-identical results, but
    the per-model setup is paid once instead of once per candidate.
    Raises {!Nas_error.Fail}[ (Shape_mismatch _)] unless there is exactly
    one plan per site. *)

val evaluate :
  ctx:Eval_ctx.t -> Device.t -> Models.t -> plans:Site_plan.t array -> evaluated
(** Evaluate the model with one plan per transformable site (a {!prepare}
    plus {!evaluate_prepared} in one call).  Raises
    {!Nas_error.Fail}[ (Shape_mismatch _)] unless there is exactly one plan
    per site. *)

val baseline : ctx:Eval_ctx.t -> Device.t -> Models.t -> evaluated
(** [evaluate] with every site at {!Site_plan.baseline}. *)

val of_impls : Models.t -> Site_plan.t array
(** Plans matching the model's current implementation assignment (used to
    cost a BlockSwap/FBNet-mutated model, which carries no schedule
    hints). *)
