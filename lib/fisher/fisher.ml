type scores = { per_site : float array; total : float }

let channel_score ~activation ~grad ~channel =
  let s = Tensor.shape activation in
  let n = s.(0) and c = s.(1) and h = s.(2) and w = s.(3) in
  if channel >= c then
    Nas_error.shape_mismatch "channel_score: channel %d of %d" channel c;
  let ad = Tensor.data activation and gd = Tensor.data grad in
  let plane = h * w in
  let acc = ref 0.0 in
  for ni = 0 to n - 1 do
    let base = ((ni * c) + channel) * plane in
    let inner = ref 0.0 in
    for i = 0 to plane - 1 do
      inner := !inner +. (Array.unsafe_get ad (base + i) *. Array.unsafe_get gd (base + i))
    done;
    acc := !acc +. (!inner *. !inner)
  done;
  !acc /. (2.0 *. float_of_int n)

let layer_score ~activation ~grad =
  let c = (Tensor.shape activation).(1) in
  let total = ref 0.0 in
  for channel = 0 to c - 1 do
    total := !total +. channel_score ~activation ~grad ~channel
  done;
  !total

(* One pass: every tensor it takes from [arena] is dead once the per-site
   scores, fresh floats, are summed. *)
let pass ?arena graph ~fisher_nodes batch =
  let run = Graph.forward ?arena graph batch.Train.images in
  let _loss, loss_grad =
    Ops.softmax_cross_entropy ~logits:(Graph.output run) ~labels:batch.labels
  in
  let earliest = Array.fold_left min (Graph.node_count graph - 1) fisher_nodes in
  Graph.backward_activations ?arena graph run ~loss_grad ~earliest;
  let per_site =
    Array.map
      (fun node_id ->
        let activation = Graph.activation run node_id in
        match Graph.activation_grad run node_id with
        | grad -> layer_score ~activation ~grad
        | exception Invalid_argument _ -> 0.0)
      fisher_nodes
  in
  { per_site; total = Array.fold_left ( +. ) 0.0 per_site }

let score_graph ?arena graph ~fisher_nodes batch =
  match arena with
  | None -> pass graph ~fisher_nodes batch
  | Some a -> Arena.scoped a (fun () -> pass ~arena:a graph ~fisher_nodes batch)

let score ?arena model batch =
  score_graph ?arena model.Models.graph ~fisher_nodes:model.Models.fisher_node_ids batch

let potential model batch = (score model batch).total

let finite scores =
  Float.is_finite scores.total && Guard.all_finite scores.per_site

let clipped_total ~baseline scores =
  let n = Array.length baseline.per_site in
  if Array.length scores.per_site <> n then
    Nas_error.shape_mismatch "clipped_total: %d site scores against %d baseline"
      (Array.length scores.per_site) n;
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. Float.min scores.per_site.(i) baseline.per_site.(i)
  done;
  !acc

let legal ?(slack = 0.05) ~original ~candidate () =
  candidate >= ((1.0 -. slack) *. original)

let legal_clipped ?(slack = 0.12) ~baseline scores =
  clipped_total ~baseline scores >= ((1.0 -. slack) *. baseline.total)
