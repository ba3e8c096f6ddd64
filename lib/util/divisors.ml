let gt1 e =
  let rec down d acc =
    if d < 2 then acc else down (d - 1) (if e mod d = 0 then d :: acc else acc)
  in
  down e []
