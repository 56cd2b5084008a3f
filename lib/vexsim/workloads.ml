module Srng = Pvtol_util.Srng

type t = {
  name : string;
  source : string;
  stats : Sim.stats;
  trace : Int32.t array list;
  correct : bool;
}

let mask32 v = v land 0xFFFFFFFF

let finish ~name ~source ~sim ~stats ~correct =
  { name; source; stats; trace = Sim.trace sim; correct }

let fir ~seed =
  let r = Fir.run ~seed () in
  {
    name = "fir";
    source = Fir.program ~taps:16 ~samples:64;
    stats = r.Fir.stats;
    trace = r.Fir.trace;
    correct = Fir.check r;
  }

let dot_product ~seed =
  let n = 64 in
  let source =
    String.concat "\n"
      [
        "  movi r8, 1 ; movi r9, 9 ; movi r1, 64 ; movi r4, 0";
        "  shl r20, r8, r9 ; movi r9, 1 ; movi r2, 0 ; movi r3, 64";
        "loop: ld r10, 0(r2) ; ld r11, 0(r3) ; add r2, r2, r9 ; add r3, r3, r9";
        "  mul r12, r10, r11 ; sub r1, r1, r9 ; nop ; nop";
        "  add r4, r4, r12 ; nop ; nop ; nop";
        "  brnz r1, loop";
        "  st r4, 0(r20)";
      ]
  in
  let sim = Sim.create (Asm.assemble source) in
  let rng = Srng.create seed in
  let a = Array.init n (fun _ -> Srng.int rng 16 - 8) in
  let b = Array.init n (fun _ -> Srng.int rng 16 - 8) in
  Array.iteri (fun i v -> Sim.store sim i v) a;
  Array.iteri (fun i v -> Sim.store sim (64 + i) v) b;
  let stats = Sim.run sim in
  let expected =
    mask32 (Array.fold_left ( + ) 0 (Array.init n (fun i -> a.(i) * b.(i))))
  in
  finish ~name:"dot-product" ~source ~sim ~stats
    ~correct:(Sim.load sim 512 = expected)

let iir_biquad ~seed =
  let n = 48 in
  (* Integer biquad: y = b0 x + b1 x1 + b2 x2 - a1 y1 - a2 y2 with the
     shift registers updated per sample.  r31 stays 0. *)
  let source =
    String.concat "\n"
      [
        "  movi r8, 1 ; movi r9, 9 ; movi r1, 48 ; movi r2, 0";
        "  shl r3, r8, r9 ; movi r9, 1 ; movi r31, 0 ; movi r10, 3";
        "  movi r11, 2 ; movi r12, 1 ; movi r13, 1 ; movi r14, 2";
        "  movi r15, 0 ; movi r16, 0 ; movi r17, 0 ; movi r18, 0";
        "loop: ld r20, 0(r2) ; nop ; nop ; nop";
        "  mul r21, r20, r10 ; mul r22, r15, r11 ; mul r23, r16, r12 ; nop";
        "  mul r24, r17, r13 ; mul r25, r18, r14 ; add r21, r21, r22 ; nop";
        "  add r21, r21, r23 ; add r16, r15, r31 ; add r15, r20, r31 ; nop";
        "  sub r21, r21, r24 ; add r18, r17, r31 ; nop ; nop";
        "  sub r21, r21, r25 ; add r2, r2, r9 ; sub r1, r1, r9 ; nop";
        "  st r21, 0(r3) ; add r17, r21, r31 ; add r3, r3, r9 ; nop";
        "  brnz r1, loop";
      ]
  in
  let sim = Sim.create (Asm.assemble source) in
  let rng = Srng.create seed in
  let x = Array.init n (fun _ -> Srng.int rng 8 - 4) in
  Array.iteri (fun i v -> Sim.store sim i v) x;
  let stats = Sim.run sim in
  (* Reference with the same 32-bit wrap points as the ISS. *)
  let b0 = 3 and b1 = 2 and b2 = 1 and a1 = 1 and a2 = 2 in
  let x1 = ref 0 and x2 = ref 0 and y1 = ref 0 and y2 = ref 0 in
  let ok = ref true in
  for i = 0 to n - 1 do
    let y =
      mask32
        (mask32
           (mask32 (mask32 ((x.(i) * b0) + (!x1 * b1)) + (!x2 * b2))
           - (!y1 * a1))
        - (!y2 * a2))
    in
    x2 := !x1;
    x1 := mask32 x.(i);
    y2 := !y1;
    y1 := y;
    if Sim.load sim (512 + i) <> y then ok := false
  done;
  finish ~name:"iir-biquad" ~source ~sim ~stats ~correct:!ok

let vector_max ~seed =
  let n = 96 in
  let source =
    String.concat "\n"
      [
        "  movi r8, 1 ; movi r9, 9 ; movi r1, 96 ; movi r2, 0";
        "  shl r20, r8, r9 ; movi r9, 1 ; movi r31, 0 ; movi r4, 0";
        "loop: ld r10, 0(r2) ; add r2, r2, r9 ; sub r1, r1, r9 ; nop";
        "  cmplt r11, r4, r10 ; nop ; nop ; nop";
        "  brz r11, skip";
        "  add r4, r10, r31 ; nop ; nop ; nop";
        "skip: brnz r1, loop";
        "  st r4, 0(r20)";
      ]
  in
  let sim = Sim.create (Asm.assemble source) in
  let rng = Srng.create seed in
  let xs = Array.init n (fun _ -> Srng.int rng 200) in
  Array.iteri (fun i v -> Sim.store sim i v) xs;
  let stats = Sim.run sim in
  let expected = Array.fold_left max 0 xs in
  finish ~name:"vector-max" ~source ~sim ~stats
    ~correct:(Sim.load sim 512 = expected)

let memcpy ~seed =
  let n = 96 in
  let source =
    String.concat "\n"
      [
        "  movi r1, 96 ; movi r9, 1 ; movi r2, 0 ; movi r3, 127";
        "  add r3, r3, r9 ; nop ; nop ; nop";
        "loop: ld r10, 0(r2) ; add r2, r2, r9 ; sub r1, r1, r9 ; nop";
        "  st r10, 0(r3) ; add r3, r3, r9 ; nop ; nop";
        "  brnz r1, loop";
      ]
  in
  let sim = Sim.create (Asm.assemble source) in
  let rng = Srng.create seed in
  let xs = Array.init n (fun _ -> Srng.int rng 1000) in
  Array.iteri (fun i v -> Sim.store sim i v) xs;
  let stats = Sim.run sim in
  let ok = ref true in
  Array.iteri (fun i v -> if Sim.load sim (128 + i) <> v then ok := false) xs;
  finish ~name:"memcpy" ~source ~sim ~stats ~correct:!ok

let all () =
  let seed = 3 in
  [
    fir ~seed;
    dot_product ~seed:(seed + 1);
    iir_biquad ~seed:(seed + 2);
    vector_max ~seed:(seed + 3);
    memcpy ~seed:(seed + 4);
  ]
