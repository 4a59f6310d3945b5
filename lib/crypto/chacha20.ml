(* RFC 8439 ChaCha20. The state lives in sixteen local [Int32] refs,
   which ocamlopt keeps unboxed as long as they never escape the
   function. Without flambda a quarter-round helper over the refs (or
   their values) would box them on every call, so the eight
   quarter-rounds are written out below. [Int32] adds wrap, so no
   masking is needed. The keystream is XORed 8 bytes at a time. *)

let[@inline] rotl x n = Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))

let max_counter = 0xFFFFFFFF

(* [dst.[i] <- src.[i] lxor keystream.[i]] for [i] in [0, len). [src]
   and [dst] may be the same buffer. *)
let xor_keystream ~key ~nonce ~counter src dst len =
  if String.length key <> 32 then invalid_arg "Chacha20: key must be 32 bytes";
  if String.length nonce <> 12 then invalid_arg "Chacha20: nonce must be 12 bytes";
  (* The blocks must not wrap the 32-bit block counter, or a later
     block would repeat an earlier one's keystream. *)
  let blocks = (len + 63) / 64 in
  if counter < 0 || counter > max_counter || blocks - 1 > max_counter - counter then
    invalid_arg "Chacha20: counter out of range";
  let k0 = String.get_int32_le key 0 and k1 = String.get_int32_le key 4 in
  let k2 = String.get_int32_le key 8 and k3 = String.get_int32_le key 12 in
  let k4 = String.get_int32_le key 16 and k5 = String.get_int32_le key 20 in
  let k6 = String.get_int32_le key 24 and k7 = String.get_int32_le key 28 in
  let n0 = String.get_int32_le nonce 0 and n1 = String.get_int32_le nonce 4 in
  let n2 = String.get_int32_le nonce 8 in
  (* Keystream of the current block; only the last, partial block is
     read from it byte by byte. *)
  let ks = Bytes.create 64 in
  let off = ref 0 and ctr = ref counter in
  while !off < len do
    (* "expand 32-byte k" *)
    let x0 = ref 0x61707865l and x1 = ref 0x3320646el in
    let x2 = ref 0x79622d32l and x3 = ref 0x6b206574l in
    let x4 = ref k0 and x5 = ref k1 and x6 = ref k2 and x7 = ref k3 in
    let x8 = ref k4 and x9 = ref k5 and x10 = ref k6 and x11 = ref k7 in
    let c = Int32.of_int !ctr in
    let x12 = ref c and x13 = ref n0 and x14 = ref n1 and x15 = ref n2 in
    for _ = 1 to 10 do
      (* Column rounds: (0 4 8 12) (1 5 9 13) (2 6 10 14) (3 7 11 15). *)
      x0 := Int32.add !x0 !x4; x12 := rotl (Int32.logxor !x12 !x0) 16;
      x8 := Int32.add !x8 !x12; x4 := rotl (Int32.logxor !x4 !x8) 12;
      x0 := Int32.add !x0 !x4; x12 := rotl (Int32.logxor !x12 !x0) 8;
      x8 := Int32.add !x8 !x12; x4 := rotl (Int32.logxor !x4 !x8) 7;
      x1 := Int32.add !x1 !x5; x13 := rotl (Int32.logxor !x13 !x1) 16;
      x9 := Int32.add !x9 !x13; x5 := rotl (Int32.logxor !x5 !x9) 12;
      x1 := Int32.add !x1 !x5; x13 := rotl (Int32.logxor !x13 !x1) 8;
      x9 := Int32.add !x9 !x13; x5 := rotl (Int32.logxor !x5 !x9) 7;
      x2 := Int32.add !x2 !x6; x14 := rotl (Int32.logxor !x14 !x2) 16;
      x10 := Int32.add !x10 !x14; x6 := rotl (Int32.logxor !x6 !x10) 12;
      x2 := Int32.add !x2 !x6; x14 := rotl (Int32.logxor !x14 !x2) 8;
      x10 := Int32.add !x10 !x14; x6 := rotl (Int32.logxor !x6 !x10) 7;
      x3 := Int32.add !x3 !x7; x15 := rotl (Int32.logxor !x15 !x3) 16;
      x11 := Int32.add !x11 !x15; x7 := rotl (Int32.logxor !x7 !x11) 12;
      x3 := Int32.add !x3 !x7; x15 := rotl (Int32.logxor !x15 !x3) 8;
      x11 := Int32.add !x11 !x15; x7 := rotl (Int32.logxor !x7 !x11) 7;
      (* Diagonal rounds: (0 5 10 15) (1 6 11 12) (2 7 8 13) (3 4 9 14). *)
      x0 := Int32.add !x0 !x5; x15 := rotl (Int32.logxor !x15 !x0) 16;
      x10 := Int32.add !x10 !x15; x5 := rotl (Int32.logxor !x5 !x10) 12;
      x0 := Int32.add !x0 !x5; x15 := rotl (Int32.logxor !x15 !x0) 8;
      x10 := Int32.add !x10 !x15; x5 := rotl (Int32.logxor !x5 !x10) 7;
      x1 := Int32.add !x1 !x6; x12 := rotl (Int32.logxor !x12 !x1) 16;
      x11 := Int32.add !x11 !x12; x6 := rotl (Int32.logxor !x6 !x11) 12;
      x1 := Int32.add !x1 !x6; x12 := rotl (Int32.logxor !x12 !x1) 8;
      x11 := Int32.add !x11 !x12; x6 := rotl (Int32.logxor !x6 !x11) 7;
      x2 := Int32.add !x2 !x7; x13 := rotl (Int32.logxor !x13 !x2) 16;
      x8 := Int32.add !x8 !x13; x7 := rotl (Int32.logxor !x7 !x8) 12;
      x2 := Int32.add !x2 !x7; x13 := rotl (Int32.logxor !x13 !x2) 8;
      x8 := Int32.add !x8 !x13; x7 := rotl (Int32.logxor !x7 !x8) 7;
      x3 := Int32.add !x3 !x4; x14 := rotl (Int32.logxor !x14 !x3) 16;
      x9 := Int32.add !x9 !x14; x4 := rotl (Int32.logxor !x4 !x9) 12;
      x3 := Int32.add !x3 !x4; x14 := rotl (Int32.logxor !x14 !x3) 8;
      x9 := Int32.add !x9 !x14; x4 := rotl (Int32.logxor !x4 !x9) 7
    done;
    Bytes.set_int32_le ks 0 (Int32.add !x0 0x61707865l);
    Bytes.set_int32_le ks 4 (Int32.add !x1 0x3320646el);
    Bytes.set_int32_le ks 8 (Int32.add !x2 0x79622d32l);
    Bytes.set_int32_le ks 12 (Int32.add !x3 0x6b206574l);
    Bytes.set_int32_le ks 16 (Int32.add !x4 k0);
    Bytes.set_int32_le ks 20 (Int32.add !x5 k1);
    Bytes.set_int32_le ks 24 (Int32.add !x6 k2);
    Bytes.set_int32_le ks 28 (Int32.add !x7 k3);
    Bytes.set_int32_le ks 32 (Int32.add !x8 k4);
    Bytes.set_int32_le ks 36 (Int32.add !x9 k5);
    Bytes.set_int32_le ks 40 (Int32.add !x10 k6);
    Bytes.set_int32_le ks 44 (Int32.add !x11 k7);
    Bytes.set_int32_le ks 48 (Int32.add !x12 c);
    Bytes.set_int32_le ks 52 (Int32.add !x13 n0);
    Bytes.set_int32_le ks 56 (Int32.add !x14 n1);
    Bytes.set_int32_le ks 60 (Int32.add !x15 n2);
    let o = !off in
    if len - o >= 64 then
      for i = 0 to 7 do
        let j = i * 8 in
        Bytes.set_int64_le dst (o + j)
          (Int64.logxor (Bytes.get_int64_le src (o + j)) (Bytes.get_int64_le ks j))
      done
    else
      for i = 0 to len - o - 1 do
        Bytes.set dst (o + i)
          (Char.unsafe_chr (Char.code (Bytes.get src (o + i)) lxor Char.code (Bytes.get ks i)))
      done;
    off := o + 64;
    incr ctr
  done

let block ~key ~counter ~nonce =
  let out = Bytes.make 64 '\x00' in
  xor_keystream ~key ~nonce ~counter out out 64;
  Bytes.unsafe_to_string out

let keystream_xor ~key ~nonce ~counter buf =
  xor_keystream ~key ~nonce ~counter buf buf (Bytes.length buf)

let encrypt ~key ~nonce ?(counter = 1) input =
  let len = String.length input in
  let out = Bytes.create len in
  xor_keystream ~key ~nonce ~counter (Bytes.unsafe_of_string input) out len;
  Bytes.unsafe_to_string out
