(* Transcript gate behind the @serve-smoke alias: every line a daemon
   wrote must parse as a protocol response, and the responses must answer
   the expected keys exactly once each, in any order (workers answer
   concurrently).  A response's key is its id; pong and stats replies,
   which carry none, count as "pong" and "stats".

     serve_transcript FILE KEY...   exit 1 on any mismatch *)

let key = function
  | Protocol.Result r -> r.Protocol.rs_id
  | Protocol.Overloaded o -> o.ov_id
  | Protocol.Unavailable u -> u.un_id
  | Protocol.Error_resp e -> e.er_id
  | Protocol.Pong -> "pong"
  | Protocol.Stats_resp _ -> "stats"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("serve_transcript: " ^ m); exit 1) fmt

let () =
  match Array.to_list Sys.argv with
  | _ :: path :: expected ->
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      let keys =
        List.mapi
          (fun i line ->
            match Protocol.response_of_json line with
            | Ok r -> key r
            | Error m -> die "%s: line %d is not a response (%s): %s" path (i + 1) m line)
          lines
      in
      let sorted = List.sort compare in
      if sorted keys <> sorted expected then
        die "%s: answered [%s], expected [%s]" path
          (String.concat " " (sorted keys))
          (String.concat " " (sorted expected))
  | _ -> die "usage: serve_transcript FILE KEY..."
