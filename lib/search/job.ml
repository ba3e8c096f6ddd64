type t = {
  jb_network : string;
  jb_device : string;
  jb_seed : int;
  jb_candidates : int;
  jb_strategy : Strategy.t option;
  jb_mutate_prob : float option;
  jb_budget : int option;
  jb_workers : int;
  jb_fault_rate : float;
  jb_fault_seed : int option;
}

let make ?(network = "resnet18") ?(device = "CPU") ?(candidates = 40) ?(seed = 42)
    ?strategy ?mutate_prob ?budget ?(workers = 1) ?(fault_rate = 0.0) ?fault_seed () =
  { jb_network = network; jb_device = device; jb_seed = seed;
    jb_candidates = candidates; jb_strategy = strategy; jb_mutate_prob = mutate_prob;
    jb_budget = budget; jb_workers = workers; jb_fault_rate = fault_rate;
    jb_fault_seed = fault_seed }

(* Written so that NaN fails too. *)
let probability p = p >= 0.0 && p <= 1.0

let validate j =
  let within ok = Option.fold ~none:true ~some:ok in
  if Zoo.find j.jb_network = None then
    Error (Printf.sprintf "unknown network %s (valid: %s)" j.jb_network Zoo.names_doc)
  else if j.jb_candidates < 1 then Error "candidates must be >= 1"
  else if j.jb_workers < 1 then Error "workers must be >= 1"
  else if not (probability j.jb_fault_rate) then Error "fault_rate must be in [0,1]"
  else if not (within (fun b -> b >= 1) j.jb_budget) then Error "budget must be >= 1"
  else if not (within probability j.jb_mutate_prob) then Error "mutate_prob must be in [0,1]"
  else Ok ()

let fault j =
  if j.jb_fault_rate <= 0.0 then Fault.none
  else
    Fault.make ~seed:(Option.value j.jb_fault_seed ~default:j.jb_seed)
      ~rate:j.jb_fault_rate ()

let probe_batch rng ~input_size =
  let data = Synthetic_data.make rng ~classes:10 ~size:input_size ~n:64 () in
  Synthetic_data.fixed_batch rng data ~batch_size:16

let run ~ctx ?stop ?checkpoint ?checkpoint_every ?on_sched_stats j =
  let spec, device =
    match Zoo.spec j.jb_network, Device.by_name j.jb_device with
    | Some spec, Some device -> (spec, device)
    | _ ->
        invalid_arg ("Job.run: unknown network or device: " ^ j.jb_network ^ ", " ^ j.jb_device)
  in
  let obs = Eval_ctx.obs ctx in
  let rng = Rng.create j.jb_seed in
  let model = Obs.with_span obs "build" (fun () -> Models.build spec rng) in
  let probe =
    Obs.with_span obs "probe" (fun () ->
        probe_batch (Rng.split rng) ~input_size:model.Models.input_size)
  in
  ( model,
    Unified_search.search ~candidates:j.jb_candidates ?mutate_prob:j.jb_mutate_prob
      ?stop ?budget:j.jb_budget ?checkpoint ?checkpoint_every ~workers:j.jb_workers
      ?on_sched_stats ?strategy:j.jb_strategy ~ctx
      ~rng:(Rng.split rng) ~device ~probe model )
