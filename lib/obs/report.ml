type phase = {
  ph_name : string;
  ph_count : int;
  ph_total_s : float;
  ph_mean_s : float;
}

type t = {
  rp_generated : int;
  rp_static_checked : int;
  rp_static_rejected : int;
  rp_fisher_rejected : int;
  rp_quarantined : int;
  rp_cost_ranked : int;
  rp_rejection_fraction : float;
  rp_paper_fraction : float;
  rp_phases : phase list;
  rp_wall_s : float;
  rp_counters : (string * int) list;
}

let paper_rejection_fraction = 0.90

let span_prefix = "span."

let of_metrics ?(wall_s = 0.0) m =
  let generated = Metrics.counter m "search.generated" in
  let fisher_rejected = Metrics.counter m "search.fisher_rejected" in
  let phases =
    List.filter_map
      (fun (name, (h : Metrics.histogram)) ->
        if String.length name > String.length span_prefix
           && String.sub name 0 (String.length span_prefix) = span_prefix
        then
          Some
            { ph_name =
                String.sub name (String.length span_prefix)
                  (String.length name - String.length span_prefix);
              ph_count = h.Metrics.h_count;
              ph_total_s = h.h_sum_s;
              ph_mean_s = (if h.h_count = 0 then 0.0 else h.h_sum_s /. float_of_int h.h_count) }
        else None)
      (Metrics.histograms m)
  in
  (* Most interesting phase first: order by total time spent. *)
  let phases =
    List.sort (fun a b -> compare (b.ph_total_s, b.ph_name) (a.ph_total_s, a.ph_name)) phases
  in
  { rp_generated = generated;
    rp_static_checked = Metrics.counter m "analysis.static_checked";
    rp_static_rejected = Metrics.counter m "analysis.static_reject";
    rp_fisher_rejected = fisher_rejected;
    rp_quarantined = Metrics.counter m "search.quarantined";
    rp_cost_ranked = Metrics.counter m "search.cost_ranked";
    rp_rejection_fraction =
      (if generated = 0 then 0.0
       else float_of_int fisher_rejected /. float_of_int generated);
    rp_paper_fraction = paper_rejection_fraction;
    rp_phases = phases;
    rp_wall_s = wall_s;
    rp_counters = Metrics.counters m }

let pp ppf r =
  Format.fprintf ppf "observability report@.";
  Format.fprintf ppf
    "  candidates: %d generated, %d fisher-rejected, %d quarantined, %d cost-ranked@."
    r.rp_generated r.rp_fisher_rejected r.rp_quarantined r.rp_cost_ranked;
  Format.fprintf ppf
    "  rejected for free by Fisher: %.1f%%  (paper claims ~%.0f%%)@."
    (100.0 *. r.rp_rejection_fraction)
    (100.0 *. r.rp_paper_fraction);
  if r.rp_static_checked > 0 then
    Format.fprintf ppf
      "  rejection split: %d static (pre-Fisher, of %d checked), %d Fisher@."
      r.rp_static_rejected r.rp_static_checked r.rp_fisher_rejected;
  if r.rp_phases <> [] then begin
    Format.fprintf ppf "  phase breakdown:@.";
    List.iter
      (fun p ->
        Format.fprintf ppf "    %-12s %6d spans  %10.4fs total  %10.6fs mean@."
          p.ph_name p.ph_count p.ph_total_s p.ph_mean_s)
      r.rp_phases
  end;
  if r.rp_wall_s > 0.0 then Format.fprintf ppf "  wall: %.3fs@." r.rp_wall_s;
  Format.fprintf ppf "  counters:@.";
  List.iter (fun (k, n) -> Format.fprintf ppf "    %-28s %d@." k n) r.rp_counters
