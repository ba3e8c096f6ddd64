(* Registry gate behind the @zoo alias: builds every preset registered in
   Zoo at every scale, validates its spec, runs the static analyzer's site
   consistency check on every site, and fails on drift from the recorded
   structural snapshots.

     zoo_check            check everything, exit 1 on any failure
     zoo_check --print    also print snapshot lines (for updating Zoo)
     zoo_check --markdown print the generated README network table *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      Printf.eprintf "zoo_check: %s\n" m)
    fmt

let check_entry (e : Zoo.entry) =
  List.iter
    (fun scale ->
      let spec = e.Zoo.ze_spec scale in
      List.iter
        (fun p -> fail "%s: invalid spec: %s" e.Zoo.ze_name p)
        (Block.validate spec);
      let m = Models.build spec (Rng.create 42) in
      Array.iter
        (fun s ->
          List.iter
            (fun d ->
              fail "%s: site %s: %s" e.Zoo.ze_name s.Conv_impl.site_label
                (Diagnostic.to_string d))
            (Shape_infer.check_site s))
        m.Models.sites;
      ignore
        (Models.forward_logits m
           (Tensor.rand_normal (Rng.create 7)
              [| 1; m.Models.input_channels; m.Models.input_size;
                 m.Models.input_size |]
              ~mean:0.0 ~std:1.0)))
    [ `Search; `Train; `Imagenet ];
  (* Snapshot pinning happens at `Search scale, build seed 42. *)
  let m = Models.build (e.Zoo.ze_spec `Search) (Rng.create 42) in
  let sites = Array.length m.Models.sites in
  let macs = Models.total_macs m in
  let nodes = Graph.node_count m.Models.graph in
  let digest = Models.graph_digest m in
  (match e.Zoo.ze_snapshot with
  | None -> fail "%s: registry entry has no recorded snapshot" e.Zoo.ze_name
  | Some s ->
      if s.Zoo.zs_sites <> sites then
        fail "%s: site count drifted (recorded %d, built %d)" e.Zoo.ze_name
          s.Zoo.zs_sites sites;
      if s.Zoo.zs_macs <> macs then
        fail "%s: MACs drifted (recorded %d, built %d)" e.Zoo.ze_name s.Zoo.zs_macs
          macs;
      if s.Zoo.zs_nodes <> nodes then
        fail "%s: node count drifted (recorded %d, built %d)" e.Zoo.ze_name
          s.Zoo.zs_nodes nodes;
      if s.Zoo.zs_digest <> digest then
        fail "%s: graph digest drifted (recorded %s, built %s)" e.Zoo.ze_name
          s.Zoo.zs_digest digest);
  (m, sites, macs, nodes, digest)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "--check" in
  let rows =
    List.map
      (fun e ->
        let m, sites, macs, nodes, digest = check_entry e in
        (e, m, sites, macs, nodes, digest))
      Zoo.all
  in
  (match mode with
  | "--print" ->
      List.iter
        (fun ((e : Zoo.entry), _, sites, macs, nodes, digest) ->
          Printf.printf "%s: snap %d %d %d \"%s\"\n" e.ze_name sites macs nodes
            digest)
        rows
  | "--markdown" ->
      print_string
        "| network | family | paper | sites | MACs (search) | params | description |\n";
      print_string "|---|---|---|---|---|---|---|\n";
      List.iter
        (fun ((e : Zoo.entry), m, sites, macs, _, _) ->
          Printf.printf "| `%s` | %s | %s | %d | %d | %d | %s |\n" e.ze_name
            e.ze_family
            (if e.ze_paper then "yes" else "no")
            sites macs (Models.conv_params m) e.ze_doc)
        rows
  | "--check" -> ()
  | other -> fail "unknown mode %s (expected --check, --print or --markdown)" other);
  if !failures > 0 then begin
    Printf.eprintf "zoo_check: %d failure(s) across %d entries\n" !failures
      (List.length rows);
    exit 1
  end
  else if mode = "--check" then
    Printf.printf "zoo_check: %d entries OK (specs, sites, analyzer, snapshots)\n"
      (List.length rows)
