type t = {
  images : Tensor.t array;
  labels : int array;
  classes : int;
  size : int;
}

(* A smooth template: coarse Gaussian noise upsampled to full resolution so
   that class evidence has spatial structure a convolution can exploit.

   The draw order is part of every seeded result: the templates class by
   class, each coarse plane in flat order, then the images in label order,
   each element in flat order. *)
let template rng ~size =
  let coarse_size = max 2 (size / 4) in
  let coarse =
    Tensor.data (Tensor.rand_normal rng [| 3; coarse_size; coarse_size |] ~mean:0.0 ~std:1.0)
  in
  let t = Tensor.zeros [| 3; size; size |] in
  let d = Tensor.data t in
  for c = 0 to 2 do
    for h = 0 to size - 1 do
      let ch = min (coarse_size - 1) (h * coarse_size / size) in
      for w = 0 to size - 1 do
        let cw = min (coarse_size - 1) (w * coarse_size / size) in
        d.((((c * size) + h) * size) + w) <- coarse.((((c * coarse_size) + ch) * coarse_size) + cw)
      done
    done
  done;
  t

let make rng ~classes ~size ~n ?(signal = 1.0) ?(noise = 0.6) () =
  let templates = Array.init classes (fun _ -> template rng ~size) in
  let labels = Array.init n (fun i -> i mod classes) in
  let images =
    Array.map
      (fun label ->
        let base = Tensor.data templates.(label) in
        let img = Tensor.zeros [| 3; size; size |] in
        let d = Tensor.data img in
        for i = 0 to Array.length d - 1 do
          d.(i) <- (signal *. base.(i)) +. Rng.gauss_scaled rng ~mean:0.0 ~std:noise
        done;
        img)
      labels
  in
  (* Shuffle example order so batches mix classes. *)
  let order = Rng.permutation rng n in
  { images = Array.map (fun i -> images.(i)) order;
    labels = Array.map (fun i -> labels.(i)) order;
    classes;
    size }

let cifar_like rng ~n = make rng ~classes:10 ~size:16 ~n ()
let cifar_like_small rng ~n = make rng ~classes:10 ~size:8 ~n ()
let imagenet_like rng ~n = make rng ~classes:20 ~size:32 ~n ()

let stack t indices =
  let k = Array.length indices in
  let size = t.size in
  let images = Tensor.zeros [| k; 3; size; size |] in
  let plane = 3 * size * size in
  Array.iteri
    (fun bi i ->
      Array.blit (Tensor.data t.images.(i)) 0 (Tensor.data images) (bi * plane) plane)
    indices;
  { Train.images; labels = Array.map (fun i -> t.labels.(i)) indices }

let batches t ~batch_size =
  let n = Array.length t.images / batch_size in
  List.init n (fun b -> stack t (Array.init batch_size (fun i -> (b * batch_size) + i)))

let batch_fn rng t ~batch_size _step =
  let n = Array.length t.images in
  stack t (Array.init batch_size (fun _ -> Rng.int rng n))

let fixed_batch rng t ~batch_size =
  let n = Array.length t.images in
  stack t (Array.init batch_size (fun _ -> Rng.int rng n))
