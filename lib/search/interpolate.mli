(** §7.7: interpolating between NAS models.

    NAS can only jump between the discrete blocks in its menu (here the
    grouped blocks g=2 — "NAS-A" — and g=4 — "NAS-B"); the unified
    transformation framework generates operators in between by applying
    parametrized split/group chains (realized as [Split_grouped] and mixed
    per-site assignments).  Each point is trained from scratch a few times
    to give mean accuracy with error bars, and the Pareto-optimal points are
    flagged. *)

type point = {
  ip_name : string;
  ip_kind : [ `Nas | `Ours ];
  ip_latency_s : float;
  ip_acc_mean : float;
  ip_acc_err : float;  (** standard error over training runs *)
  ip_pareto : bool;
}

val run :
  ?seeds:int ->
  ?train_steps:int ->
  ctx:Eval_ctx.t ->
  rng:Rng.t ->
  device:Device.t ->
  data:Synthetic_data.t ->
  Models.t ->
  point list
(** Returns NAS-A, NAS-B and the interpolated operators with trained
    accuracies and predicted latencies. *)
