(* FIPS 180-4 SHA-256. Word arithmetic is done in native ints, masked
   to 32 bits once per sum (OCaml ints are 63-bit and wrap, so the low
   32 bits are exact). *)

let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1; 0x923f82a4;
    0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe;
    0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc; 0x2de92c6f;
    0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
    0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
    0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116;
    0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
    0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208; 0x90befffa; 0xa4506ceb; 0xbef9a3f7;
    0xc67178f2;
  |]

type ctx = {
  h : int array; (* 8 state words *)
  block : Bytes.t; (* 64-byte block buffer *)
  mutable fill : int; (* bytes buffered in [block] *)
  mutable total : int; (* total message bytes *)
  w : int array; (* 64-entry message schedule, reused *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
        0x5be0cd19;
      |];
    block = Bytes.create 64;
    fill = 0;
    total = 0;
    w = Array.make 64 0;
  }

(* Rotations work on the word copied into its own high half: for a
   32-bit [x], [x lor (x lsl 32)] holds bits 0..31 of [x] twice over
   (bit 31 drops off the 63-bit int), so bits 0..31 of [lsr n] are the
   rotation right by [n] for every n <= 31. The bits above are garbage.
   Every consumer is a sum or an xor that is masked once, and the low 32
   bits of a sum or xor depend only on the low 32 bits of its operands,
   so one mask per sum is enough. Inputs must be masked words. *)
let[@inline] big_sigma0 a =
  let x = a lor (a lsl 32) in
  (x lsr 2) lxor (x lsr 13) lxor (x lsr 22)

let[@inline] big_sigma1 e =
  let x = e lor (e lsl 32) in
  (x lsr 6) lxor (x lsr 11) lxor (x lsr 25)

(* One round's two sums: [t1] is added into [d] (the next [e]), and
   [t1 + t2] becomes the next [a]. The indices are proven in range by
   [compress]'s loop bounds, so [k] and [w] are read unchecked. *)
let[@inline] t1 e f g h w i =
  h + big_sigma1 e + (g lxor (e land (f lxor g))) + Array.unsafe_get k i + Array.unsafe_get w i

let[@inline] t2 a b c = big_sigma0 a + ((a land b) lor (c land (a lor b)))

(* Compress the 64-byte block at [buf.[pos]] into [ctx.h]. The rounds
   run in blocks of eight in which the working variables swap roles
   instead of shifting down one place per round: round r writes its new
   [e] into the variable that held [d] and its new [a] into the one
   that held [h], and after eight rounds every role is back where it
   started. *)
let compress ctx buf pos =
  let w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (Bytes.get_int32_be buf (pos + (i * 4))) land mask
  done;
  (* i - 16 >= 0 and i <= 63 < Array.length w: unchecked reads. *)
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
    let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask)
  done;
  let st = ctx.h in
  let a = ref st.(0) and b = ref st.(1) and c = ref st.(2) and d = ref st.(3) in
  let e = ref st.(4) and f = ref st.(5) and g = ref st.(6) and h = ref st.(7) in
  (* i = 8 * j + r with j <= 7 and r <= 7, so 0 <= i <= 63. *)
  for j = 0 to 7 do
    let i = j * 8 in
    let t = t1 !e !f !g !h w i in
    d := (!d + t) land mask;
    h := (t + t2 !a !b !c) land mask;
    let t = t1 !d !e !f !g w (i + 1) in
    c := (!c + t) land mask;
    g := (t + t2 !h !a !b) land mask;
    let t = t1 !c !d !e !f w (i + 2) in
    b := (!b + t) land mask;
    f := (t + t2 !g !h !a) land mask;
    let t = t1 !b !c !d !e w (i + 3) in
    a := (!a + t) land mask;
    e := (t + t2 !f !g !h) land mask;
    let t = t1 !a !b !c !d w (i + 4) in
    h := (!h + t) land mask;
    d := (t + t2 !e !f !g) land mask;
    let t = t1 !h !a !b !c w (i + 5) in
    g := (!g + t) land mask;
    c := (t + t2 !d !e !f) land mask;
    let t = t1 !g !h !a !b w (i + 6) in
    f := (!f + t) land mask;
    b := (t + t2 !c !d !e) land mask;
    let t = t1 !f !g !h !a w (i + 7) in
    e := (!e + t) land mask;
    a := (t + t2 !b !c !d) land mask
  done;
  st.(0) <- (st.(0) + !a) land mask;
  st.(1) <- (st.(1) + !b) land mask;
  st.(2) <- (st.(2) + !c) land mask;
  st.(3) <- (st.(3) + !d) land mask;
  st.(4) <- (st.(4) + !e) land mask;
  st.(5) <- (st.(5) + !f) land mask;
  st.(6) <- (st.(6) + !g) land mask;
  st.(7) <- (st.(7) + !h) land mask

(* Top up a partly filled [ctx.block] first, then compress whole blocks
   straight from [buf], and buffer what is left. *)
let update ctx buf ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length buf);
  ctx.total <- ctx.total + len;
  let pos = ref pos and len = ref len in
  if ctx.fill > 0 then begin
    let take = min (64 - ctx.fill) !len in
    Bytes.blit buf !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    len := !len - take;
    if ctx.fill = 64 then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while !len >= 64 do
    compress ctx buf !pos;
    pos := !pos + 64;
    len := !len - 64
  done;
  if !len > 0 then begin
    Bytes.blit buf !pos ctx.block 0 !len;
    ctx.fill <- !len
  end

let update_string ctx s =
  update ctx (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finalize ctx =
  (* Padding: 0x80, zeros, 64-bit big-endian bit length. *)
  let block = ctx.block and fill = ctx.fill in
  Bytes.set block fill '\x80';
  let zeros_from =
    if fill < 56 then fill + 1
    else begin
      (* No room for the length: pad out this block, length in the next. *)
      Bytes.fill block (fill + 1) (63 - fill) '\x00';
      compress ctx block 0;
      0
    end
  in
  Bytes.fill block zeros_from (56 - zeros_from) '\x00';
  Bytes.set_int64_be block 56 (Int64.of_int (ctx.total * 8));
  compress ctx block 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (i * 4) (Int32.of_int ctx.h.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update_string ctx s;
  finalize ctx

let hex_digits = "0123456789abcdef"

let hex raw =
  let n = String.length raw in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let b = Char.code (String.unsafe_get raw i) in
    Bytes.unsafe_set out (2 * i) hex_digits.[b lsr 4];
    Bytes.unsafe_set out ((2 * i) + 1) hex_digits.[b land 0xF]
  done;
  Bytes.unsafe_to_string out

let digest_hex s = hex (digest s)
