(** FBNet [77], re-implemented over our block menu as in §7.5: a
    differentiable-style NAS that *trains* while searching.

    The original trains a supernet with Gumbel-softmax over per-layer block
    choices and a latency-aware loss.  Our substitute keeps the essential
    structure — per-site categorical logits, a latency-regularized reward,
    and gradient-free logit updates from short proxy trainings (a
    cross-entropy-method estimator of the same objective) — and charges the
    simulated training cost that the paper quotes (~3 GPU-days per
    network). *)

type result = {
  fb_impls : Conv_impl.t array;
  fb_model : Models.t;
  fb_latency_s : float;
  fb_accuracy : float;  (** proxy validation accuracy of the selected net *)
  fb_trainings : int;  (** number of proxy trainings performed *)
  fb_simulated_gpu_days : float;
}

(** Run the FBNet-style search: [rounds] cross-entropy updates of the
    per-site logits, sampling [population] networks per round and scoring
    each with a [train_steps]-step proxy training against [data], with
    latency on [device] weighted into the reward by [latency_weight].
    Spans and counters land on [ctx]'s observability recorder under the
    ["fbnet"] span. *)
val search :
  ?rounds:int ->
  ?population:int ->
  ?train_steps:int ->
  ?latency_weight:float ->
  ctx:Eval_ctx.t ->
  rng:Rng.t ->
  device:Device.t ->
  data:Synthetic_data.t ->
  Models.t ->
  result
