open Gen

let half_adder t a b = (xor2 t a b, and2 t a b)

(* Dadda-schedule column reduction: stage targets 2, 3, 4, 6, 9, 13, ...
   guarantee logarithmic depth without the serial carry tail a naive
   "compress until height 2" scheme produces; a Kogge-Stone adder
   resolves the final two rows. *)
let reduce t columns =
  let ncols = Array.length columns in
  let max_height = Array.fold_left (fun m l -> max m (List.length l)) 0 columns in
  let schedule =
    (* Descending Dadda targets below the initial height, ending at 2. *)
    let rec up acc d = if d >= max_height then acc else up (d :: acc) (d * 3 / 2) in
    up [] 2
  in
  let cols = ref (Array.map Array.of_list columns) in
  let stage target =
    let next = Array.make ncols [] in
    let carries = Array.make ncols 0 in
    (* Left-to-right so each column sees the carries this stage sends it. *)
    for i = 0 to ncols - 1 do
      let bits = (!cols).(i) in
      let h = ref (Array.length bits + carries.(i)) in
      let k = ref 0 in
      let avail () = Array.length bits - !k in
      while !h > target && avail () >= 2 do
        if !h - target >= 2 && avail () >= 3 then begin
          let sum, carry = Adder.full_adder t bits.(!k) bits.(!k + 1) bits.(!k + 2) in
          next.(i) <- sum :: next.(i);
          if i + 1 < ncols then begin
            next.(i + 1) <- carry :: next.(i + 1);
            carries.(i + 1) <- carries.(i + 1) + 1
          end;
          k := !k + 3;
          h := !h - 2
        end
        else begin
          let sum, carry = half_adder t bits.(!k) bits.(!k + 1) in
          next.(i) <- sum :: next.(i);
          if i + 1 < ncols then begin
            next.(i + 1) <- carry :: next.(i + 1);
            carries.(i + 1) <- carries.(i + 1) + 1
          end;
          k := !k + 2;
          h := !h - 1
        end
      done;
      for j = !k to Array.length bits - 1 do
        next.(i) <- bits.(j) :: next.(i)
      done
    done;
    cols := Array.map (fun l -> Array.of_list (List.rev l)) next
  in
  List.iter stage schedule;
  (* Carry pile-ups can leave isolated columns at height 3; the HA rule
     clears them in one or two extra parallel passes. *)
  let fixup = ref 0 in
  while Array.exists (fun bits -> Array.length bits > 2) !cols && !fixup < 4 do
    incr fixup;
    stage 2
  done;
  Array.iter (fun bits -> assert (Array.length bits <= 2)) !cols;
  let zero = lazy (tie0 t) in
  let row n =
    Array.init ncols (fun i ->
        let bits = (!cols).(i) in
        if Array.length bits > n then bits.(n) else Lazy.force zero)
  in
  let sum, _ = Adder.kogge_stone t (row 0) (row 1) in
  sum

let partial_columns t ~ncols a b =
  let wa = Array.length a and wb = Array.length b in
  let columns = Array.make ncols [] in
  for i = 0 to wa - 1 do
    for j = 0 to wb - 1 do
      if i + j < ncols then
        columns.(i + j) <- and2 t a.(i) b.(j) :: columns.(i + j)
    done
  done;
  columns

let truncated t ~width a b = reduce t (partial_columns t ~ncols:width a b)
