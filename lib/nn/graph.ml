type op =
  | Input
  | Conv of Layer.conv
  | Batch_norm of Layer.bn
  | Relu
  | Max_pool of { size : int; stride : int; pad : int }
  | Avg_pool of { size : int; stride : int; pad : int }
  | Global_avg_pool
  | Linear of Layer.linear
  | Add
  | Concat
  | Identity
  | Zero
  | Upsample of int
  | Sigmoid
  | Scale_channels

type node = { id : int; op : op; inputs : int list; label : string }
type t = { nodes : node array; output_id : int }

let make nodes ~output_id =
  Array.iteri
    (fun i n ->
      assert (n.id = i);
      List.iter (fun j -> assert (j < i)) n.inputs)
    nodes;
  assert (output_id >= 0 && output_id < Array.length nodes);
  { nodes; output_id }

type cache =
  | C_none
  | C_bn of Ops.bn_cache
  | C_pool of int array

type run = {
  graph : t;
  acts : Tensor.t array;
  grads : Tensor.t option array;
  caches : cache array;
}

let one_input n =
  match n.inputs with
  | [ i ] -> i
  | _ -> invalid_arg (Printf.sprintf "node %s: expected one input" n.label)

(* A copy of [t], from [arena] when there is one. *)
let copy arena t =
  let c = Arena.uninit arena (Tensor.shape t) in
  Tensor.blit ~src:t ~dst:c;
  c

let forward ?arena g input =
  let n = Array.length g.nodes in
  let acts = Array.make n (Tensor.scalar 0.0) in
  let caches = Array.make n C_none in
  Array.iter
    (fun node ->
      let i = node.id in
      let act =
        match node.op with
        | Input -> input
        | Conv c ->
            Ops.conv2d ?arena ~input:acts.(one_input node) ~weight:c.Layer.cv_w.p_value
              ~bias:(Option.map (fun b -> b.Layer.p_value) c.cv_b)
              { Ops.stride = c.cv_stride; pad = c.cv_pad; groups = c.cv_groups;
                dilation = c.cv_dilation }
        | Batch_norm b ->
            let out, cache =
              Ops.batch_norm ?arena ~input:acts.(one_input node)
                ~gamma:b.Layer.bn_gamma.p_value ~beta:b.bn_beta.p_value ~eps:b.bn_eps ()
            in
            caches.(i) <- C_bn cache;
            out
        | Relu -> Ops.relu ?arena acts.(one_input node)
        | Max_pool { size; stride; pad } ->
            let out, idx = Ops.max_pool2d ?arena acts.(one_input node) ~size ~stride ~pad in
            caches.(i) <- C_pool idx;
            out
        | Avg_pool { size; stride; pad } ->
            Ops.avg_pool2d ?arena acts.(one_input node) ~size ~stride ~pad
        | Global_avg_pool -> Ops.global_avg_pool ?arena acts.(one_input node)
        | Linear l ->
            Ops.linear ?arena ~input:acts.(one_input node) ~weight:l.Layer.ln_w.p_value
              ~bias:l.ln_b.p_value ()
        | Add -> begin
            match node.inputs with
            | [] -> invalid_arg "Add: no inputs"
            | first :: rest ->
                let acc = copy arena acts.(first) in
                List.iter (fun j -> Tensor.add_ acc acts.(j)) rest;
                acc
          end
        | Concat -> Ops.concat_channels ?arena (List.map (fun j -> acts.(j)) node.inputs)
        | Identity -> acts.(one_input node)
        | Zero -> Arena.zeros arena (Tensor.shape acts.(one_input node))
        | Upsample f -> Ops.upsample_nearest ?arena acts.(one_input node) f
        | Sigmoid -> Ops.sigmoid ?arena acts.(one_input node)
        | Scale_channels -> begin
            match node.inputs with
            | [ main; gate ] ->
                Ops.scale_channels ?arena ~input:acts.(main) ~gate:acts.(gate) ()
            | _ -> invalid_arg (node.label ^ ": scale_channels expects [main; gate]")
          end
      in
      acts.(i) <- act)
    g.nodes;
  { graph = g; acts; grads = Array.make n None; caches }

let output run = run.acts.(run.graph.output_id)
let activation run i = run.acts.(i)

(* Adds [g] into the gradient of node [i].  Every backward kernel returns
   a fresh tensor that nothing else holds, so the first one is stored as
   it is and later ones are added into it.  Only [Add] (one [gout] sent to
   every input) and [Identity] (its [gout] passed on) hand out a tensor
   that another node also holds; they pass [~shared:true], and the first
   one is copied, so no two nodes ever share a gradient tensor. *)
let accumulate arena grads ?(shared = false) i g =
  match grads.(i) with
  | None -> grads.(i) <- Some (if shared then copy arena g else g)
  | Some acc -> Tensor.add_ acc g

(* The one backward sweep: nodes from the output down to [stop], each
   passing its activation gradient to its inputs.  With [params] it also
   accumulates every parameter gradient.  Without, it leaves every [p_grad]
   untouched and skips the convolution weight-gradient kernel, the only
   costly one; the batch-norm and linear kernels still compute their small
   parameter gradients along the way. *)
let sweep ?arena g run ~loss_grad ~params ~stop =
  let grads = run.grads in
  let accumulate = accumulate arena grads in
  grads.(g.output_id) <- Some (copy arena loss_grad);
  for i = Array.length g.nodes - 1 downto stop do
    match grads.(i) with
    | None -> () (* node does not influence the loss *)
    | Some gout ->
        let node = g.nodes.(i) in
        (match node.op with
        | Input -> ()
        | Conv c ->
            let input = run.acts.(one_input node) and weight = c.Layer.cv_w.p_value in
            let p =
              { Ops.stride = c.cv_stride; pad = c.cv_pad; groups = c.cv_groups;
                dilation = c.cv_dilation }
            in
            let gin =
              if params then begin
                let gin, gw, gb = Ops.conv2d_backward ~input ~weight ~gout p in
                Tensor.add_ c.cv_w.p_grad gw;
                Option.iter (fun b -> Tensor.add_ b.Layer.p_grad gb) c.cv_b;
                gin
              end
              else Ops.conv2d_backward_input ?arena ~input ~weight ~gout p
            in
            accumulate (one_input node) gin
        | Batch_norm b ->
            let cache =
              match run.caches.(i) with
              | C_bn c -> c
              | C_none | C_pool _ -> assert false
            in
            let gin, ggamma, gbeta = Ops.batch_norm_backward ?arena ~gout ~cache () in
            if params then begin
              Tensor.add_ b.Layer.bn_gamma.p_grad ggamma;
              Tensor.add_ b.bn_beta.p_grad gbeta
            end;
            accumulate (one_input node) gin
        | Relu ->
            let input = run.acts.(one_input node) in
            accumulate (one_input node) (Ops.relu_backward ?arena ~input ~gout ())
        | Max_pool _ ->
            let indices =
              match run.caches.(i) with
              | C_pool idx -> idx
              | C_none | C_bn _ -> assert false
            in
            let input = run.acts.(one_input node) in
            accumulate (one_input node)
              (Ops.max_pool2d_backward ?arena ~input ~gout ~indices ())
        | Avg_pool { size; stride; pad } ->
            let input = run.acts.(one_input node) in
            accumulate (one_input node)
              (Ops.avg_pool2d_backward ?arena ~input ~gout ~size ~stride ~pad ())
        | Global_avg_pool ->
            let input = run.acts.(one_input node) in
            accumulate (one_input node)
              (Ops.global_avg_pool_backward ?arena ~input ~gout ())
        | Linear l ->
            let input = run.acts.(one_input node) in
            let gin, gw, gb =
              Ops.linear_backward ?arena ~input ~weight:l.Layer.ln_w.p_value ~gout ()
            in
            if params then begin
              Tensor.add_ l.ln_w.p_grad gw;
              Tensor.add_ l.ln_b.p_grad gb
            end;
            accumulate (one_input node) gin
        | Add -> List.iter (fun j -> accumulate ~shared:true j gout) node.inputs
        | Concat ->
            let parts =
              List.map (fun j -> (Tensor.shape run.acts.(j)).(1)) node.inputs
            in
            let gs = Ops.split_channels_backward ?arena ~gout ~parts () in
            List.iter2 (fun j gpart -> accumulate j gpart) node.inputs gs
        | Identity -> accumulate ~shared:true (one_input node) gout
        | Zero -> ()
        | Upsample f ->
            let input = run.acts.(one_input node) in
            accumulate (one_input node)
              (Ops.upsample_nearest_backward ?arena ~input ~gout f)
        | Sigmoid ->
            accumulate (one_input node)
              (Ops.sigmoid_backward ?arena ~out:run.acts.(i) ~gout ())
        | Scale_channels -> begin
            match node.inputs with
            | [ main; gate ] ->
                let gmain, ggate =
                  Ops.scale_channels_backward ?arena ~input:run.acts.(main)
                    ~gate:run.acts.(gate) ~gout ()
                in
                accumulate main gmain;
                accumulate gate ggate
            | _ -> assert false
          end)
  done

let backward g run ~loss_grad = sweep g run ~loss_grad ~params:true ~stop:0

(* Node [earliest] needs only the gradients its successors send it, so the
   sweep stops just above it. *)
let backward_activations ?arena g run ~loss_grad ~earliest =
  sweep ?arena g run ~loss_grad ~params:false ~stop:(earliest + 1)

let activation_grad run i =
  match run.grads.(i) with
  | Some g -> g
  | None -> invalid_arg (Printf.sprintf "activation_grad: node %d has no gradient" i)

let params g =
  Array.to_list g.nodes
  |> List.concat_map (fun n ->
         match n.op with
         | Conv c -> (
             c.Layer.cv_w :: (match c.cv_b with None -> [] | Some b -> [ b ]))
         | Batch_norm b -> [ b.Layer.bn_gamma; b.bn_beta ]
         | Linear l -> [ l.Layer.ln_w; l.ln_b ]
         | Input | Relu | Max_pool _ | Avg_pool _ | Global_avg_pool | Add | Concat
         | Identity | Zero | Upsample _ | Sigmoid | Scale_channels ->
             [])

let param_count g =
  List.fold_left (fun acc p -> acc + Tensor.numel p.Layer.p_value) 0 (params g)

let zero_grads g = List.iter Layer.zero_grad (params g)
let node_count g = Array.length g.nodes
let node g i = g.nodes.(i)
