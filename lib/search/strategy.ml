type t = Random | Typed | Guided

let all = [ Random; Typed; Guided ]

let to_string = function
  | Random -> "random"
  | Typed -> "typed"
  | Guided -> "guided"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "random" -> Some Random
  | "typed" -> Some Typed
  | "guided" -> Some Guided
  | _ -> None

let names_doc = "random|typed|guided"

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* --- typed candidate generation ---------------------------------------- *)

(* The full typed menu runs all the way to degenerate factors (bottleneck
   to a single mid channel, grouping to depthwise); those are well-typed
   but capacity-destroying, so the clipped Fisher gate rejects them almost
   surely.  Generation samples the mild slice — compute reduction at most
   8x — falling back to the whole menu when a site has no gentle option. *)
let mild_menu site =
  let menu = Sequences.typed_menu site in
  let mild seq = Conv_impl.reduction_factor site (Sequences.impl seq) <= 8.0 in
  match List.filter mild menu with [] -> menu | ms -> ms

let typed_site_plan rng site =
  match mild_menu site with
  | [] -> Site_plan.baseline
  | menu -> Sequences.plan (Rng.choice_list rng menu)

(* Full coverage, not sparse edits: the clipped Fisher gate compares
   per-site scores against the reference, and a partially-mutated network
   perturbs the activations of every *unmutated* downstream site — their
   clipped shortfalls add up.  A coherent whole-network rewrite (every
   site redrawn, mildly) keeps the per-site profile close to the
   reference's shape and survives the gate far more often than the same
   rewrite applied to a few sites (measured: ~78% vs ~40% at the pinned
   bench seed). *)
let typed_plans rng model =
  Array.map (fun site -> typed_site_plan rng site) model.Models.sites

let extend_plans rng model plans =
  let sites = model.Models.sites in
  let n = Array.length sites in
  if n = 0 then None
  else begin
    let i = Rng.int rng n in
    let next = Array.copy plans in
    next.(i) <- typed_site_plan rng sites.(i);
    Some next
  end
