open Pvtol_netlist
module Geom = Pvtol_util.Geom
module Metrics = Pvtol_util.Metrics

let m_rows = Metrics.counter "eco_rows_searched_total"
let m_gaps = Metrics.counter "eco_gaps_examined_total"

type stats = {
  inserted : int;
  moved : int;
  mean_displacement : float;
  max_displacement : float;
}

(* Free-interval bookkeeping per row.  Existing cells never move (ECO
   placement): each new cell drops into the nearest free gap that fits
   it — the gaps being largely the quantum whitespace the legalizer
   reserved (see Legalize.run's [padding]).

   A row keeps its gaps sorted by left edge in two arrays of capacity
   [size] (a power of two), plus a max-width tree over them: node 1 is
   the root, leaf [size + i] holds gap [i]'s width [r -. l] (the very
   expression the fit test compares with the cell width), leaves past
   [n] hold [neg_infinity], and an inner node holds the larger of its
   children.  The root bounds the whole row, and a descent finds the
   nearest gap wide enough for a cell on either side of an index in
   O(log n). *)
module Gaps = struct
  type row = {
    mutable n : int;
    mutable ls : float array;
    mutable rs : float array;
    mutable tree : float array;
  }

  let size row = Array.length row.ls

  (* Recompute the leaves [from, upto) and every inner node above them. *)
  let retabulate row ~from ~upto =
    let size = size row and t = row.tree in
    for i = from to upto - 1 do
      t.(size + i) <- (if i < row.n then row.rs.(i) -. row.ls.(i) else neg_infinity)
    done;
    let lo = ref ((size + from) / 2) and hi = ref ((size + upto - 1) / 2) in
    while !hi >= 1 do
      for k = !lo to !hi do
        let a = t.(2 * k) and b = t.((2 * k) + 1) in
        t.(k) <- (if a >= b then a else b)
      done;
      lo := !lo / 2;
      hi := !hi / 2
    done

  let of_list gaps =
    let n = List.length gaps in
    let size = ref 1 in
    while !size < n do
      size := 2 * !size
    done;
    let row =
      {
        n;
        ls = Array.make !size 0.0;
        rs = Array.make !size 0.0;
        tree = Array.make (2 * !size) neg_infinity;
      }
    in
    List.iteri
      (fun i (l, r) ->
        row.ls.(i) <- l;
        row.rs.(i) <- r)
      gaps;
    retabulate row ~from:0 ~upto:!size;
    row

  let build (p : Placement.t) n_placed =
    let fp = p.Placement.floorplan in
    let core = fp.Floorplan.core in
    let by_row = Array.make fp.Floorplan.n_rows [] in
    for i = 0 to n_placed - 1 do
      let c = p.Placement.netlist.Netlist.cells.(i) in
      let w = Placement.cell_width c fp in
      let r = Floorplan.row_of_y fp p.Placement.ys.(i) in
      let left = p.Placement.xs.(i) -. (w /. 2.0) in
      by_row.(r) <- (left, left +. w) :: by_row.(r)
    done;
    Array.map
      (fun occupied ->
        let sorted = List.sort compare occupied in
        let rec gaps cursor = function
          | [] ->
            if core.Geom.urx -. cursor > 1e-9 then [ (cursor, core.Geom.urx) ]
            else []
          | (l, r) :: rest ->
            let tail = gaps (Float.max cursor r) rest in
            if l -. cursor > 1e-9 then (cursor, l) :: tail else tail
        in
        of_list (gaps core.Geom.llx sorted))
      by_row

  let fits row w = row.tree.(1) >= w

  (* The first gap at index >= [k] at least [w] wide, or -1: climb
     from leaf [k] to the nearest subtree right of it whose maximum
     fits, then descend to that subtree's leftmost fitting leaf. *)
  let[@inline] next_right row k w =
    if k >= row.n then -1
    else begin
      let size = size row and t = row.tree in
      if t.(size + k) >= w then k
      else begin
        (* A right child goes up; a left child whose right sibling
           does not fit moves to that sibling. *)
        let i = ref (size + k) in
        while !i > 1 && (!i land 1 = 1 || t.(!i + 1) < w) do
          i := if !i land 1 = 1 then !i lsr 1 else !i + 1
        done;
        if !i = 1 then -1
        else begin
          i := !i + 1;
          while !i < size do
            i := if t.(2 * !i) >= w then 2 * !i else (2 * !i) + 1
          done;
          !i - size
        end
      end
    end

  (* The last gap at index <= [k] at least [w] wide, or -1; the mirror
     image of [next_right]. *)
  let[@inline] next_left row k w =
    if k < 0 then -1
    else begin
      let size = size row and t = row.tree in
      if t.(size + k) >= w then k
      else begin
        let i = ref (size + k) in
        while !i > 1 && (!i land 1 = 0 || t.(!i - 1) < w) do
          i := if !i land 1 = 0 then !i lsr 1 else !i - 1
        done;
        if !i = 1 then -1
        else begin
          i := !i - 1;
          while !i < size do
            i := if t.((2 * !i) + 1) >= w then (2 * !i) + 1 else 2 * !i
          done;
          !i - size
        end
      end
    end

  (* Position of a width-[w] cell nearest [x] within gap [i]. *)
  let[@inline] pos row i ~x ~w =
    Float.max (row.ls.(i) +. (w /. 2.0)) (Float.min (row.rs.(i) -. (w /. 2.0)) x)

  (* The closest-fit gap for a width-[w] cell near [x], earliest gap
     first at equal cost, or -1.  The scan starts at [x]'s place in the
     row and steps outward over gaps wide enough.  A gap's cost is at
     least its distance bound [d], [l -. x] right of [x] and [x -. r]
     left of it, and the bound only grows outward; so each direction
     stops at the first gap whose [d] strictly exceeds the row's best,
     or whose [d] plus the row's [dy] reaches [bound], the best total
     cost of the rows before, which this row then cannot beat.  A row
     cut short by [bound] may return a gap other than its own best, but
     then neither can beat [bound].  [examined] counts the gaps
     costed. *)
  let[@inline] best_in_row row ~x ~w ~dy ~bound ~examined =
    let lo = ref 0 and hi = ref row.n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if row.ls.(mid) <= x then lo := mid + 1 else hi := mid
    done;
    let split = !lo in
    let best = ref infinity and best_i = ref (-1) in
    (* Leftward from [x]: a gap further left wins a tie. *)
    let k = ref (next_left row (split - 1) w) in
    while !k >= 0 do
      let d = x -. row.rs.(!k) in
      if d > !best || d +. dy >= bound then k := -1
      else begin
        incr examined;
        let cost = Float.abs (pos row !k ~x ~w -. x) in
        if cost <= !best then begin
          best := cost;
          best_i := !k
        end;
        k := next_left row (!k - 1) w
      end
    done;
    (* Rightward: every gap lies right of all the leftward ones. *)
    let k = ref (next_right row split w) in
    while !k >= 0 do
      let d = row.ls.(!k) -. x in
      if d > !best || d +. dy >= bound then k := -1
      else begin
        incr examined;
        let cost = Float.abs (pos row !k ~x ~w -. x) in
        if cost < !best then begin
          best := cost;
          best_i := !k
        end;
        k := next_right row (!k + 1) w
      end
    done;
    !best_i

  let grow row =
    let size = size row in
    let ls = Array.make (2 * size) 0.0 and rs = Array.make (2 * size) 0.0 in
    Array.blit row.ls 0 ls 0 row.n;
    Array.blit row.rs 0 rs 0 row.n;
    row.ls <- ls;
    row.rs <- rs;
    row.tree <- Array.make (4 * size) neg_infinity;
    retabulate row ~from:0 ~upto:(2 * size)

  (* Remove the span a width-[w] cell at [pos] occupies from gap [i],
     keeping the remnants wider than 1e-9 in place.  The span lies
     inside gap [i] up to rounding, and short of its neighbours, which
     sit at least one cell width away: no other gap of the row
     changes. *)
  let take row i ~pos ~w =
    let left = pos -. (w /. 2.0) and right = pos +. (w /. 2.0) in
    let l = row.ls.(i) and r = row.rs.(i) in
    assert (
      left >= l -. 1e-9
      && right <= r +. 1e-9
      && (i = 0 || left >= row.rs.(i - 1))
      && (i = row.n - 1 || right <= row.ls.(i + 1)));
    let n = row.n in
    match (left -. l > 1e-9, r -. right > 1e-9) with
    | true, true ->
      if n = size row then grow row;
      Array.blit row.ls (i + 1) row.ls (i + 2) (n - i - 1);
      Array.blit row.rs (i + 1) row.rs (i + 2) (n - i - 1);
      row.rs.(i) <- left;
      row.ls.(i + 1) <- right;
      row.rs.(i + 1) <- r;
      row.n <- n + 1;
      retabulate row ~from:i ~upto:(n + 1)
    | true, false ->
      row.rs.(i) <- left;
      retabulate row ~from:i ~upto:(i + 1)
    | false, true ->
      row.ls.(i) <- right;
      retabulate row ~from:i ~upto:(i + 1)
    | false, false ->
      Array.blit row.ls (i + 1) row.ls i (n - i - 1);
      Array.blit row.rs (i + 1) row.rs i (n - i - 1);
      row.n <- n - 1;
      retabulate row ~from:i ~upto:n
end

let insert (old_p : Placement.t) (nl : Netlist.t) ~desired =
  let n_old = Netlist.cell_count old_p.Placement.netlist in
  let n_new = Netlist.cell_count nl in
  assert (n_new >= n_old);
  let fp = old_p.Placement.floorplan in
  let p =
    {
      Placement.netlist = nl;
      floorplan = fp;
      xs = Array.make n_new 0.0;
      ys = Array.make n_new 0.0;
    }
  in
  Array.blit old_p.Placement.xs 0 p.Placement.xs 0 n_old;
  Array.blit old_p.Placement.ys 0 p.Placement.ys 0 n_old;
  let gaps = Gaps.build old_p n_old in
  let n_rows = fp.Floorplan.n_rows in
  let centre =
    Array.init n_rows (fun r ->
        Floorplan.row_y fp r +. (fp.Floorplan.row_height /. 2.0))
  in
  let total = ref 0.0 and worst = ref 0.0 in
  let rows_searched = ref 0 and examined = ref 0 in
  for i = n_old to n_new - 1 do
    let target = desired i in
    let x = target.Geom.x in
    let w = Placement.cell_width nl.Netlist.cells.(i) fp in
    let prefer = Floorplan.row_of_y fp target.Geom.y in
    (* Branch-and-bound over rows outward from the preferred one: a row
       [ring] rows away costs at least [ring * row_height], so the
       search stops once that lower bound exceeds the best found
       ([infinity] until a fit is found).  A row whose widest gap is
       too narrow, or whose [dy] alone reaches the best, is skipped. *)
    let best = ref infinity and best_row = ref (-1) in
    let best_gap = ref (-1) and best_pos = ref 0.0 in
    let ring = ref 0 in
    while
      !ring < n_rows && float_of_int !ring *. fp.Floorplan.row_height < !best
    do
      (* [prefer] alone, then [prefer - ring] before [prefer + ring]. *)
      for side = (if !ring = 0 then 1 else 0) to 1 do
        let r = if side = 0 then prefer - !ring else prefer + !ring in
        if r >= 0 && r < n_rows then begin
          incr rows_searched;
          let dy = Float.abs (centre.(r) -. target.Geom.y) in
          let row = gaps.(r) in
          if dy < !best && Gaps.fits row w then begin
            let g = Gaps.best_in_row row ~x ~w ~dy ~bound:!best ~examined in
            if g >= 0 then begin
              let pos = Gaps.pos row g ~x ~w in
              let cost = Float.abs (pos -. x) +. dy in
              if not (!best <= cost) then begin
                best := cost;
                best_row := r;
                best_gap := g;
                best_pos := pos
              end
            end
          end
        end
      done;
      incr ring
    done;
    if !best_row < 0 then failwith "Incremental.insert: no free space in any row";
    let r = !best_row and pos = !best_pos and cost = !best in
    Gaps.take gaps.(r) !best_gap ~pos ~w;
    p.Placement.xs.(i) <- pos;
    p.Placement.ys.(i) <- centre.(r);
    total := !total +. cost;
    if cost > !worst then worst := cost
  done;
  Metrics.add m_rows !rows_searched;
  Metrics.add m_gaps !examined;
  let inserted = n_new - n_old in
  ( p,
    {
      inserted;
      moved = 0;
      mean_displacement =
        (if inserted = 0 then 0.0 else !total /. float_of_int inserted);
      max_displacement = !worst;
    } )
