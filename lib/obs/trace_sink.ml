type t = {
  mutable rev_events : Obs_event.t list;  (* newest first *)
  mutable count : int;
  dest : string option;
}

let memory () = { rev_events = []; count = 0; dest = None }
let file path = { rev_events = []; count = 0; dest = Some path }

let emit t e =
  t.rev_events <- e :: t.rev_events;
  t.count <- t.count + 1

let length t = t.count
let events t = List.rev t.rev_events
let dest t = t.dest

let append t other =
  (* Keep amortized cost linear in the child's size: the child's events
     (already newest-first) go in front of the parent's reversed list. *)
  t.rev_events <- other.rev_events @ t.rev_events;
  t.count <- t.count + other.count

let write_to t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          output_string oc (Obs_event.to_json e);
          output_char oc '\n')
        (events t))

let write t = match t.dest with Some path -> write_to t path | None -> ()

let load path =
  In_channel.with_open_text path (fun ic ->
      let rec go n acc =
        match In_channel.input_line ic with
        | None -> Ok (List.rev acc)
        | Some line when String.trim line = "" -> go (n + 1) acc
        | Some line -> (
            match Obs_event.of_json line with
            | Some e -> go (n + 1) (e :: acc)
            | None -> Error (Printf.sprintf "%s: line %d is not a trace event" path n))
      in
      go 1 [])
