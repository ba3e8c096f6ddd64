type result = {
  fb_impls : Conv_impl.t array;
  fb_model : Models.t;
  fb_latency_s : float;
  fb_accuracy : float;
  fb_trainings : int;
  fb_simulated_gpu_days : float;
}

let softmax_sample rng logits =
  let mx = Array.fold_left max neg_infinity logits in
  let exps = Array.map (fun l -> exp (l -. mx)) logits in
  let total = Array.fold_left ( +. ) 0.0 exps in
  let u = Rng.uniform rng *. total in
  let acc = ref 0.0 and choice = ref 0 in
  Array.iteri
    (fun i e ->
      if !acc <= u then choice := i;
      acc := !acc +. e)
    exps;
  !choice

let latency_of ~ctx device model impls =
  let plans = Array.map (fun impl -> Site_plan.make impl) impls in
  (Pipeline.evaluate ~ctx device model ~plans).Pipeline.ev_latency_s

let search ?(rounds = 4) ?(population = 6) ?(train_steps = 40)
    ?(latency_weight = 0.35) ~ctx ~rng ~device ~data model =
  let obs = Eval_ctx.obs ctx in
  Obs.with_span obs "fbnet" @@ fun () ->
  let menus = Array.map Blockswap.menu model.Models.sites in
  let menus = Array.map Array.of_list menus in
  let logits = Array.map (fun m -> Array.make (max 1 (Array.length m)) 0.0) menus in
  let baseline_latency = latency_of ~ctx device model (Array.map (fun _ -> Conv_impl.Full) model.Models.sites) in
  let trainings = ref 0 in
  let eval_config impls =
    (* Short proxy training: the expensive step FBNet pays at every
       evaluation and the unified approach avoids entirely. *)
    incr trainings;
    Obs.incr obs "fbnet.trainings";
    let candidate = Models.rebuild model (Rng.split rng) impls in
    let batch_rng = Rng.split rng in
    let steps = train_steps in
    let _ =
      Train.train candidate ~steps
        ~batch_fn:(fun step -> Synthetic_data.batch_fn batch_rng data ~batch_size:16 step)
        ~base_lr:0.05
    in
    let val_batches =
      List.filteri (fun i _ -> i < 4) (Synthetic_data.batches data ~batch_size:16)
    in
    let acc = Train.evaluate candidate val_batches in
    let lat = latency_of ~ctx device model impls in
    let reward = acc -. (latency_weight *. (lat /. baseline_latency)) in
    (reward, acc, lat, candidate)
  in
  let best = ref None in
  for _round = 1 to rounds do
    let scored =
      List.init population (fun _ ->
          let choices = Array.mapi (fun i m -> if Array.length m = 0 then 0 else softmax_sample rng logits.(i) mod Array.length m) menus in
          let impls = Array.mapi (fun i m -> if Array.length m = 0 then Conv_impl.Full else m.(choices.(i))) menus in
          let reward, acc, lat, candidate = eval_config impls in
          (match !best with
          | Some (r, _, _, _, _) when r >= reward -> ()
          | _ -> best := Some (reward, impls, candidate, acc, lat));
          (reward, choices))
    in
    (* Cross-entropy update: push logits towards the elite half. *)
    let sorted = List.sort (fun (a, _) (b, _) -> compare b a) scored in
    let elite = List.filteri (fun i _ -> i < max 1 (population / 2)) sorted in
    List.iter
      (fun (_, choices) ->
        Array.iteri
          (fun site choice ->
            if Array.length logits.(site) > 0 then
              logits.(site).(choice) <- logits.(site).(choice) +. 0.5)
          choices)
      elite
  done;
  match !best with
  | None -> failwith "fbnet: empty search"
  | Some (_, impls, candidate, acc, lat) ->
      (* The paper charges FBNet ~3 GPU-days of search training per network;
         we scale that by the fraction of proxy trainings actually run. *)
      let gpu_days = 3.0 *. float_of_int !trainings /. float_of_int (rounds * population) in
      { fb_impls = impls;
        fb_model = candidate;
        fb_latency_s = lat;
        fb_accuracy = acc;
        fb_trainings = !trainings;
        fb_simulated_gpu_days = gpu_days }
