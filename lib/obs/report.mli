(** Per-search summary reports.

    Renders the telemetry a traced search accumulated — the Fisher
    rejection fraction next to the paper's ~90% claim, the per-phase time
    breakdown derived from the ["span.*"] histograms, and the full counter
    dump — as text (the CLI's [--metrics] output). *)

type phase = {
  ph_name : string;  (** span name, e.g. ["fisher"] *)
  ph_count : int;  (** spans recorded *)
  ph_total_s : float;  (** summed duration *)
  ph_mean_s : float;  (** mean duration per span *)
}
(** One row of the phase-time breakdown. *)

type t = {
  rp_generated : int;  (** candidates generated (["search.generated"]) *)
  rp_static_checked : int;
      (** candidates vetted by the static analyzer (["analysis.static_checked"]) *)
  rp_static_rejected : int;
      (** rejected before Fisher by the static analyzer
          (["analysis.static_reject"]) *)
  rp_fisher_rejected : int;  (** rejected for free by Fisher Potential *)
  rp_quarantined : int;  (** failed and set aside *)
  rp_cost_ranked : int;  (** survivors ranked by the cost model *)
  rp_rejection_fraction : float;  (** fisher_rejected / generated *)
  rp_paper_fraction : float;  (** the paper's claim, {!paper_rejection_fraction} *)
  rp_phases : phase list;  (** sorted by total time, descending *)
  rp_wall_s : float;  (** search wall time (0 when not supplied) *)
  rp_counters : (string * int) list;  (** full counter dump, sorted *)
}
(** A rendered summary. *)

val paper_rejection_fraction : float
(** The paper's headline claim: ~90% of candidates rejected without
    training (§6). *)

val of_metrics : ?wall_s:float -> Metrics.t -> t
(** Build the summary from a recorder's metrics registry (the [search.*]
    counters and [span.*] histograms written by [Unified_search]). *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable report. *)
