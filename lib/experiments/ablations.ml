type fisher_ablation = {
  fa_candidates : int;
  fa_best_cost_illegal : bool;
  fa_illegal_in_top10 : int;
  fa_pool_illegal_frac : float;
  fa_fisher_wall_s : float;
  fa_train_wall_estimate_s : float;
}

type cache_validation = {
  cv_schedules : int;
  cv_pearson : float;
  cv_order_agreement : float;
}

type interleave_ablation = {
  ia_nas_only_speedup : float;
  ia_unified_speedup : float;
}

type data = {
  fisher : fisher_ablation;
  cache : cache_validation;
  interleave : interleave_ablation;
}

(* --- 1. Fisher filtering ---------------------------------------------- *)

let fisher_ablation ~ctx mode =
  let rng = Rng.create (Exp_common.master_seed + 201) in
  let model = Models.build (Models.resnet34 ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:model.Models.input_size in
  let device = Device.i7 in
  let n = Exp_common.candidates mode / 2 in
  let seed = Rng.int rng 1_000_000_000 in
  let full = Array.map (fun _ -> Conv_impl.Full) model.Models.sites in
  let baseline_scores =
    Fisher.score (Models.rebuild model (Rng.create seed) full) probe
  in
  let pool =
    List.init n (fun _ -> Unified_search.random_plans rng model ~mutate_prob:0.5)
  in
  (* Cost-only ranking (the "no legality check" compiler view). *)
  let costed =
    List.map
      (fun plans ->
        (plans, (Pipeline.evaluate ~ctx device model ~plans).Pipeline.ev_latency_s))
      pool
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) costed in
  let fisher_wall = ref 0.0 in
  let is_illegal plans =
    let impls = Array.map (fun p -> p.Site_plan.sp_impl) plans in
    let candidate = Models.rebuild model (Rng.create seed) impls in
    let f, dt = Timing.time (fun () -> Fisher.score candidate probe) in
    fisher_wall := !fisher_wall +. dt;
    not (Fisher.legal_clipped ~baseline:baseline_scores f)
  in
  let all_flags = List.map (fun (plans, _) -> is_illegal plans) sorted in
  let illegal_flags = List.filteri (fun i _ -> i < 10) all_flags in
  let per_check = !fisher_wall /. float_of_int (List.length all_flags) in
  let pool_illegal = List.length (List.filter (fun b -> b) all_flags) in
  (* Training-based legality would cost a short proxy training per
     candidate; measure one to extrapolate. *)
  let one_training =
    Timing.time_unit (fun () ->
        let data = Exp_common.train_data (Rng.split rng) ~input_size:16 ~classes:10 in
        let m = Models.rebuild model (Rng.split rng) (Array.map (fun _ -> Conv_impl.Full) model.Models.sites) in
        ignore
          (Train.train m ~steps:10
             ~batch_fn:(fun step -> Synthetic_data.batch_fn (Rng.split rng) data ~batch_size:16 step)
             ~base_lr:0.05))
  in
  { fa_candidates = n;
    fa_best_cost_illegal = (match illegal_flags with b :: _ -> b | [] -> false);
    fa_illegal_in_top10 = List.length (List.filter (fun b -> b) illegal_flags);
    fa_pool_illegal_frac = float_of_int pool_illegal /. float_of_int n;
    fa_fisher_wall_s = per_check *. float_of_int n;
    fa_train_wall_estimate_s = one_training *. float_of_int n *. 10.0
    (* a 10x longer budget than our 10-step probe would still be a very
       optimistic training check *) }

(* --- 2. Analytic vs trace-driven memory model ------------------------- *)

let cache_validation () =
  let nest = Loop_nest.conv_nest_of_dims ~co:16 ~ci:16 ~oh:12 ~ow:12 ~k:3 ~stride:1 ~groups:1 in
  let base = Loop_nest.baseline_schedule nest in
  let schedules =
    [ base;
      Poly.interchange base 0 1;
      Poly.tile base ~pos:2 ~factor:4;
      Poly.tile (Poly.tile base ~pos:2 ~factor:4) ~pos:0 ~factor:4;
      Poly.reorder base [| 4; 5; 0; 1; 2; 3 |];
      Poly.fuse base ~pos:2 ]
  in
  (* A small cache so the 12x12x16 nest actually exercises capacity. *)
  let cache = { Device.c_size = 4 * 1024; c_line = 64; c_assoc = 4 } in
  let small_dev =
    { Device.i7 with
      Device.kind =
        (match Device.i7.Device.kind with
        | Device.Cpu c -> Device.Cpu { c with Device.caches = [ cache ] }
        | k -> k) }
  in
  let predicted =
    List.map (fun s -> Cost_model.dram_traffic small_dev nest s) schedules
  in
  let simulated =
    List.map
      (fun s ->
        let prog = Loop_nest.lower nest s in
        (Cache_sim.simulate_program cache prog).Cache_sim.miss_bytes)
      schedules
  in
  let p = Array.of_list predicted and m = Array.of_list simulated in
  (* Order agreement over pairs the model actually distinguishes (>=20%
     predicted difference); near-ties carry no ranking information. *)
  let pairs = ref 0 and agree = ref 0 in
  Array.iteri
    (fun i _ ->
      Array.iteri
        (fun j _ ->
          if i < j && Float.abs (p.(i) -. p.(j)) > 0.2 *. Float.max p.(i) p.(j) then begin
            incr pairs;
            if compare p.(i) p.(j) = compare m.(i) m.(j) then incr agree
          end)
        p)
    p;
  let pairs = if !pairs = 0 then ref 1 else pairs in
  { cv_schedules = List.length schedules;
    cv_pearson = Stats.pearson p m;
    cv_order_agreement = float_of_int !agree /. float_of_int !pairs }

(* --- 3. Interleaving -------------------------------------------------- *)

let interleave_ablation ~ctx mode =
  let rng = Rng.create (Exp_common.master_seed + 203) in
  let model = Models.build (Models.resnet34 ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:model.Models.input_size in
  let device = Device.i7 in
  let n = Exp_common.candidates mode / 2 in
  let unified =
    Unified_search.search ~candidates:n ~ctx ~rng:(Rng.split rng) ~device ~probe model
  in
  (* NAS-only: restrict each mutated site to the menu-block plans (no
     interleaved sequences, no schedule hints). *)
  let nas_rng = Rng.split rng in
  let seed = Rng.int nas_rng 1_000_000_000 in
  let full = Array.map (fun _ -> Conv_impl.Full) model.Models.sites in
  let baseline_scores =
    Fisher.score (Models.rebuild model (Rng.create seed) full) probe
  in
  let best = ref None in
  for _ = 1 to n do
    let impls =
      Array.map
        (fun site ->
          if Rng.uniform nas_rng < 0.7 then Rng.choice_list nas_rng (Blockswap.menu site)
          else Conv_impl.Full)
        model.Models.sites
    in
    let candidate = Models.rebuild model (Rng.create seed) impls in
    let scores = Fisher.score candidate probe in
    if Fisher.legal_clipped ~baseline:baseline_scores scores then begin
      let plans = Array.map (fun impl -> Site_plan.make impl) impls in
      let lat = (Pipeline.evaluate ~ctx device model ~plans).Pipeline.ev_latency_s in
      match !best with
      | Some b when b <= lat -> ()
      | _ -> best := Some lat
    end
  done;
  let baseline = unified.Unified_search.r_baseline.Pipeline.ev_latency_s in
  let nas_only = match !best with Some b -> b | None -> baseline in
  { ia_nas_only_speedup = baseline /. nas_only;
    ia_unified_speedup = Unified_search.speedup unified }

let compute mode =
  let ctx = Eval_ctx.create () in
  { fisher = fisher_ablation ~ctx mode;
    cache = cache_validation ();
    interleave = interleave_ablation ~ctx mode }

let print ppf d =
  Exp_common.section ppf "Ablations";
  Format.fprintf ppf "1. Fisher legality filter (vs cost-only / train-to-check):@.";
  Format.fprintf ppf
    "   cost-only winner capacity-damaging: %b; %d of top-10 cost-ranked configs are illegal@."
    d.fisher.fa_best_cost_illegal d.fisher.fa_illegal_in_top10;
  Format.fprintf ppf "   %.0f%% of the random pool is capacity-damaging@."
    (100.0 *. d.fisher.fa_pool_illegal_frac);
  Format.fprintf ppf "   Fisher-checking %d configs: %a;  train-checking them: >= %a@."
    d.fisher.fa_candidates Timing.pp_seconds d.fisher.fa_fisher_wall_s
    Timing.pp_seconds d.fisher.fa_train_wall_estimate_s;
  Format.fprintf ppf "@.2. Analytic cost model vs trace-driven cache simulator:@.";
  Format.fprintf ppf
    "   %d schedules: traffic correlation %.2f, pairwise order agreement %.0f%%@."
    d.cache.cv_schedules d.cache.cv_pearson (100.0 *. d.cache.cv_order_agreement);
  Format.fprintf ppf "@.3. Interleaving transformations (the central claim):@.";
  Format.fprintf ppf
    "   NAS-only menu: %.2fx speedup; unified interleaved space: %.2fx speedup@."
    d.interleave.ia_nas_only_speedup d.interleave.ia_unified_speedup

let run mode ppf =
  let d = compute mode in
  print ppf d;
  d
