(* Crypto substrate: published test vectors plus properties.

   [Ref_chacha20] and [Ref_sha256] are plain word-array implementations,
   kept as oracles for the unrolled kernels in [Crypto]: perfbench
   computes its expected bytes with [Crypto] itself, so only these
   comparisons catch a wrong cipher or hash. *)

module Ref_chacha20 = struct
  let mask = 0xFFFFFFFF
  let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

  let quarter_round state a b c d =
    state.(a) <- (state.(a) + state.(b)) land mask;
    state.(d) <- rotl (state.(d) lxor state.(a)) 16;
    state.(c) <- (state.(c) + state.(d)) land mask;
    state.(b) <- rotl (state.(b) lxor state.(c)) 12;
    state.(a) <- (state.(a) + state.(b)) land mask;
    state.(d) <- rotl (state.(d) lxor state.(a)) 8;
    state.(c) <- (state.(c) + state.(d)) land mask;
    state.(b) <- rotl (state.(b) lxor state.(c)) 7

  let word_le s i =
    Char.code s.[i]
    lor (Char.code s.[i + 1] lsl 8)
    lor (Char.code s.[i + 2] lsl 16)
    lor (Char.code s.[i + 3] lsl 24)

  let block ~key ~counter ~nonce =
    let initial = Array.make 16 0 in
    initial.(0) <- 0x61707865;
    initial.(1) <- 0x3320646e;
    initial.(2) <- 0x79622d32;
    initial.(3) <- 0x6b206574;
    for i = 0 to 7 do
      initial.(4 + i) <- word_le key (i * 4)
    done;
    initial.(12) <- counter land mask;
    for i = 0 to 2 do
      initial.(13 + i) <- word_le nonce (i * 4)
    done;
    let state = Array.copy initial in
    for _ = 1 to 10 do
      quarter_round state 0 4 8 12;
      quarter_round state 1 5 9 13;
      quarter_round state 2 6 10 14;
      quarter_round state 3 7 11 15;
      quarter_round state 0 5 10 15;
      quarter_round state 1 6 11 12;
      quarter_round state 2 7 8 13;
      quarter_round state 3 4 9 14
    done;
    String.init 64 (fun i ->
        let word = (state.(i / 4) + initial.(i / 4)) land mask in
        Char.chr ((word lsr (8 * (i mod 4))) land 0xFF))

  let encrypt ~key ~nonce ~counter input =
    let ks =
      Array.init
        ((String.length input + 63) / 64)
        (fun b -> block ~key ~counter:(counter + b) ~nonce)
    in
    String.mapi (fun i c -> Char.chr (Char.code c lxor Char.code ks.(i / 64).[i mod 64])) input
end

module Ref_sha256 = struct
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

  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

  let compress h block =
    let w = Array.make 64 0 in
    for i = 0 to 15 do
      w.(i) <- Int32.to_int (String.get_int32_be block (i * 4)) land mask
    done;
    for i = 16 to 63 do
      let s0 = rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3) in
      let s1 = rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10) in
      w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for i = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = !e land !f lxor (lnot !e land !g) in
      let temp1 = (!hh + s1 + ch + k.(i) + w.(i)) land mask in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
      let temp2 = (s0 + maj) land mask in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + temp1) land mask;
      d := !c;
      c := !b;
      b := !a;
      a := (temp1 + temp2) land mask
    done;
    List.iteri (fun i x -> h.(i) <- (h.(i) + x) land mask) [ !a; !b; !c; !d; !e; !f; !g; !hh ]

  (* Pad as FIPS 180-4 says, then compress block by block. *)
  let digest s =
    let len = String.length s in
    let padded_len = ((len + 8) / 64 * 64) + 64 in
    let b = Bytes.make padded_len '\x00' in
    Bytes.blit_string s 0 b 0 len;
    Bytes.set b len '\x80';
    Bytes.set_int64_be b (padded_len - 8) (Int64.of_int (len * 8));
    let h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab;
        0x5be0cd19;
      |]
    in
    for i = 0 to (padded_len / 64) - 1 do
      compress h (Bytes.sub_string b (i * 64) 64)
    done;
    String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xFF))
end

let ref_hmac ~key message =
  let key = if String.length key > 64 then Ref_sha256.digest key else key in
  let key = key ^ String.make (64 - String.length key) '\x00' in
  let pad byte = String.map (fun c -> Char.chr (Char.code c lxor byte)) key in
  Ref_sha256.digest (pad 0x5c ^ Ref_sha256.digest (pad 0x36 ^ message))

let test_sha256_vectors () =
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Crypto.Sha256.digest_hex "");
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Crypto.Sha256.digest_hex "abc");
  Alcotest.(check string) "448 bits"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Crypto.Sha256.digest_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  Alcotest.(check string) "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Crypto.Sha256.digest_hex (String.make 1_000_000 'a'))

let test_sha256_incremental () =
  (* Chunked updates must equal the one-shot digest, for every split. *)
  let message = "The quick brown fox jumps over the lazy dog" in
  let expected = Crypto.Sha256.digest_hex message in
  for split = 0 to String.length message do
    let ctx = Crypto.Sha256.init () in
    Crypto.Sha256.update_string ctx (String.sub message 0 split);
    Crypto.Sha256.update_string ctx
      (String.sub message split (String.length message - split));
    Alcotest.(check string)
      (Printf.sprintf "split at %d" split)
      expected
      (Crypto.Sha256.hex (Crypto.Sha256.finalize ctx))
  done

let prop_sha256_incremental =
  QCheck.Test.make ~name:"sha256 chunking independence" ~count:100
    QCheck.(pair (list small_string) unit)
    (fun (chunks, ()) ->
      let whole = String.concat "" chunks in
      let ctx = Crypto.Sha256.init () in
      List.iter (Crypto.Sha256.update_string ctx) chunks;
      Crypto.Sha256.finalize ctx = Crypto.Sha256.digest whole)

let test_hmac_vectors () =
  (* RFC 4231 test case 1. *)
  Alcotest.(check string) "rfc4231 tc1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Crypto.Hmac.sha256_hex ~key:(String.make 20 '\x0b') "Hi There");
  (* RFC 4231 test case 2. *)
  Alcotest.(check string) "rfc4231 tc2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Crypto.Hmac.sha256_hex ~key:"Jefe" "what do ya want for nothing?");
  (* RFC 4231 test case 3: 20 x 0xaa key, 50 x 0xdd data. *)
  Alcotest.(check string) "rfc4231 tc3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (Crypto.Hmac.sha256_hex ~key:(String.make 20 '\xaa') (String.make 50 '\xdd'))

let test_hmac_verify () =
  let key = "secret" and message = "payload" in
  let mac = Crypto.Hmac.sha256 ~key message in
  Alcotest.(check bool) "accepts" true (Crypto.Hmac.verify ~key ~mac message);
  Alcotest.(check bool) "rejects bad message" false
    (Crypto.Hmac.verify ~key ~mac "payload2");
  Alcotest.(check bool) "rejects bad mac" false
    (Crypto.Hmac.verify ~key ~mac:(String.make 32 '\x00') message)

let test_chacha20_block_vector () =
  (* RFC 8439 section 2.3.2. *)
  let key = String.init 32 Char.chr in
  let nonce = "\x00\x00\x00\x09\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let block = Crypto.Chacha20.block ~key ~counter:1 ~nonce in
  Alcotest.(check string) "first 16 bytes"
    "10f1e7e4d13b5915500fdd1fa32071c4" (Crypto.Sha256.hex (String.sub block 0 16));
  Alcotest.(check int) "block size" 64 (String.length block)

let test_chacha20_encrypt_vector () =
  (* RFC 8439 section 2.4.2: the sunscreen plaintext. *)
  let key = String.init 32 Char.chr in
  let nonce = "\x00\x00\x00\x00\x00\x00\x00\x4a\x00\x00\x00\x00" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for \
     the future, sunscreen would be it."
  in
  let ciphertext = Crypto.Chacha20.encrypt ~key ~nonce ~counter:1 plaintext in
  Alcotest.(check string) "first bytes" "6e2e359a2568f980"
    (Crypto.Sha256.hex (String.sub ciphertext 0 8))

let prop_chacha20_roundtrip =
  QCheck.Test.make ~name:"chacha20 decrypt inverts encrypt" ~count:200
    QCheck.(string)
    (fun plaintext ->
      let key = Crypto.Sha256.digest "key material" in
      let nonce = String.sub (Crypto.Sha256.digest "nonce") 0 12 in
      let ciphertext = Crypto.Chacha20.encrypt ~key ~nonce plaintext in
      Crypto.Chacha20.encrypt ~key ~nonce ciphertext = plaintext)

let prop_chacha20_keystream_differs =
  QCheck.Test.make ~name:"chacha20 counter changes keystream" ~count:50
    QCheck.(int_range 0 1000)
    (fun counter ->
      let key = Crypto.Sha256.digest "k" in
      let nonce = String.sub (Crypto.Sha256.digest "n") 0 12 in
      Crypto.Chacha20.block ~key ~counter ~nonce
      <> Crypto.Chacha20.block ~key ~counter:(counter + 1) ~nonce)

let test_chacha20_bad_sizes () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes")
    (fun () -> ignore (Crypto.Chacha20.block ~key:"short" ~counter:0 ~nonce:(String.make 12 'n')));
  Alcotest.check_raises "short nonce" (Invalid_argument "Chacha20: nonce must be 12 bytes")
    (fun () ->
      ignore (Crypto.Chacha20.block ~key:(String.make 32 'k') ~counter:0 ~nonce:"n"))

let test_hmac_rfc4231_more () =
  let check name ~key data expected =
    Alcotest.(check string) (name ^ " ref") expected (Crypto.Sha256.hex (ref_hmac ~key data));
    Alcotest.(check string) name expected (Crypto.Hmac.sha256_hex ~key data)
  in
  (* Test case 4: 25-byte key 0x01..0x19, 50 x 0xcd data. *)
  check "rfc4231 tc4"
    ~key:(String.init 25 (fun i -> Char.chr (i + 1)))
    (String.make 50 '\xcd')
    "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b";
  (* Test case 5: the RFC gives only the 128-bit truncation. *)
  let tag = Crypto.Hmac.sha256_hex ~key:(String.make 20 '\x0c') "Test With Truncation" in
  Alcotest.(check string) "rfc4231 tc5 (128-bit truncation)"
    "a3b6167473100ee06e0c796c2955552b" (String.sub tag 0 32);
  (* Test cases 6 and 7: a 131-byte key is hashed first. *)
  let long_key = String.make 131 '\xaa' in
  check "rfc4231 tc6" ~key:long_key "Test Using Larger Than Block-Size Key - Hash Key First"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54";
  check "rfc4231 tc7" ~key:long_key
    "This is a test using a larger than block-size key and a larger than block-size \
     data. The key needs to be hashed before being used by the HMAC algorithm."
    "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"

let max_counter = 0xFFFFFFFF

let test_chacha20_counter_range () =
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let out_of_range = Invalid_argument "Chacha20: counter out of range" in
  (* The 32-bit block counter must not wrap: each of these would reuse
     the keystream of another counter. *)
  Alcotest.check_raises "block at -1" out_of_range (fun () ->
      ignore (Crypto.Chacha20.block ~key ~counter:(-1) ~nonce));
  Alcotest.check_raises "block at 2^32" out_of_range (fun () ->
      ignore (Crypto.Chacha20.block ~key ~counter:(max_counter + 1) ~nonce));
  Alcotest.check_raises "encrypt two blocks from the last counter" out_of_range (fun () ->
      ignore (Crypto.Chacha20.encrypt ~key ~nonce ~counter:max_counter (String.make 128 'x')));
  Alcotest.check_raises "keystream_xor 65 bytes from the last counter" out_of_range
    (fun () -> Crypto.Chacha20.keystream_xor ~key ~nonce ~counter:max_counter (Bytes.create 65));
  Alcotest.check_raises "encrypt from a negative counter" out_of_range (fun () ->
      ignore (Crypto.Chacha20.encrypt ~key ~nonce ~counter:(-1) "x"));
  (* Up to and including the last counter is fine. *)
  let last = Crypto.Chacha20.block ~key ~counter:max_counter ~nonce in
  Alcotest.(check string) "last block" (Ref_chacha20.block ~key ~counter:max_counter ~nonce) last;
  Alcotest.(check bool) "last block differs from block 0" true
    (last <> Crypto.Chacha20.block ~key ~counter:0 ~nonce);
  Alcotest.(check string) "two blocks ending at the last counter"
    (Ref_chacha20.encrypt ~key ~nonce ~counter:(max_counter - 1) (String.make 128 'x'))
    (Crypto.Chacha20.encrypt ~key ~nonce ~counter:(max_counter - 1) (String.make 128 'x'))

let test_sha256_hex () =
  let all = String.init 256 Char.chr in
  Alcotest.(check string) "every byte"
    (String.concat "" (List.init 256 (Printf.sprintf "%02x")))
    (Crypto.Sha256.hex all);
  Alcotest.(check string) "empty" "" (Crypto.Sha256.hex "")

let gen_string_upto n = QCheck.Gen.(string_size ~gen:char (int_range 0 n))
let gen_string_of n = QCheck.Gen.(string_size ~gen:char (return n))

(* Lengths 0-1,100 cover every padding and block edge: 55, 56, 63, 64,
   65 bytes and their multiples. *)
let prop_chacha20_reference =
  let counter =
    QCheck.Gen.(
      oneof
        [ int_range 0 1_000; int_range (max_counter - 1_000) max_counter; int_range (-3) (-1) ])
  in
  QCheck.Test.make ~name:"chacha20 matches reference" ~count:1_000
    QCheck.(
      make
        ~print:(fun (_, _, counter, input) ->
          Printf.sprintf "counter %d, %d bytes" counter (String.length input))
        Gen.(quad (gen_string_of 32) (gen_string_of 12) counter (gen_string_upto 1_100)))
    (fun (key, nonce, counter, input) ->
      let blocks = (String.length input + 63) / 64 in
      if counter < 0 || counter + max 1 blocks - 1 > max_counter then
        match Crypto.Chacha20.encrypt ~key ~nonce ~counter input with
        | _ -> false
        | exception Invalid_argument _ -> true
      else
        let expected = Ref_chacha20.encrypt ~key ~nonce ~counter input in
        let buf = Bytes.of_string input in
        Crypto.Chacha20.keystream_xor ~key ~nonce ~counter buf;
        Crypto.Chacha20.encrypt ~key ~nonce ~counter input = expected
        && Bytes.to_string buf = expected
        && Crypto.Chacha20.block ~key ~counter ~nonce = Ref_chacha20.block ~key ~counter ~nonce)

let prop_sha256_reference =
  QCheck.Test.make ~name:"sha256 matches reference" ~count:1_000
    QCheck.(make ~print:(fun s -> Printf.sprintf "%d bytes" (String.length s)) (gen_string_upto 1_100))
    (fun s -> Crypto.Sha256.digest s = Ref_sha256.digest s)

(* The message sits at a random offset inside a larger buffer and is fed
   through [update ~pos ~len] in random chunks. *)
let prop_sha256_streaming =
  QCheck.Test.make ~name:"sha256 streaming splits match reference" ~count:500
    QCheck.(
      make
        ~print:(fun (prefix, msg, chunks) ->
          Printf.sprintf "offset %d, %d bytes, chunks [%s]" (String.length prefix)
            (String.length msg)
            (String.concat ";" (List.map string_of_int chunks)))
        Gen.(
          triple
            (string_size ~gen:char (int_range 1 70))
            (gen_string_upto 1_100)
            (list_size (int_range 0 12) (int_range 0 200))))
    (fun (prefix, msg, chunks) ->
      let buf = Bytes.of_string (prefix ^ msg ^ "trailer") in
      let ctx = Crypto.Sha256.init () in
      let fed =
        List.fold_left
          (fun fed chunk ->
            let len = min chunk (String.length msg - fed) in
            Crypto.Sha256.update ctx buf ~pos:(String.length prefix + fed) ~len;
            fed + len)
          0 chunks
      in
      Crypto.Sha256.update ctx buf ~pos:(String.length prefix + fed) ~len:(String.length msg - fed);
      Crypto.Sha256.finalize ctx = Ref_sha256.digest msg)

let prop_hmac_reference =
  QCheck.Test.make ~name:"hmac matches reference" ~count:500
    QCheck.(
      make
        ~print:(fun (key, msg) ->
          Printf.sprintf "%d-byte key, %d bytes" (String.length key) (String.length msg))
        Gen.(pair (gen_string_upto 200) (gen_string_upto 1_100)))
    (fun (key, msg) -> Crypto.Hmac.sha256 ~key msg = ref_hmac ~key msg)

(* Allocation budgets, read from this domain's own counters after a
   minor collection, so they repeat exactly: minor words from
   [Gc.minor_words] ([Gc.counters]' minor figure undercounts on OCaml
   5.1) and major words from [Gc.counters] ([Gc.quick_stat]'s read 0
   until a collection). The counters' own allocation is measured with
   an empty call and taken off. *)
let alloc_words f =
  let measure f =
    Gc.minor ();
    let minor0 = Gc.minor_words () in
    let _, _, major0 = Gc.counters () in
    let r = Sys.opaque_identity (f ()) in
    let _, _, major1 = Gc.counters () in
    let minor1 = Gc.minor_words () in
    (r, minor1 -. minor0, major1 -. major0)
  in
  let _, overhead, _ = measure (fun () -> ()) in
  let r, minor, major = measure f in
  (r, int_of_float (minor -. overhead), int_of_float major)

let alloc_payload = String.init 16_384 (fun i -> Char.chr (i * 31 land 0xFF))

(* 16 KB of SHA-256 allocates only its context and digest, never per
   block or per round: 96 minor words, as before the rounds were
   unrolled. *)
let test_sha256_alloc_budget () =
  let _, minor, major = alloc_words (fun () -> Crypto.Sha256.digest alloc_payload) in
  Alcotest.(check int) "major words" 0 major;
  Alcotest.(check bool) (Printf.sprintf "minor words %d <= 96" minor) true (minor <= 96)

(* HMAC streams its padded keys through two contexts: no key strings,
   no concatenated outer message (244 minor words when it built them). *)
let test_hmac_alloc_budget () =
  let key = Crypto.Sha256.digest "alloc key" in
  let _, minor, major = alloc_words (fun () -> Crypto.Hmac.sha256 ~key alloc_payload) in
  Alcotest.(check int) "major words" 0 major;
  Alcotest.(check bool) (Printf.sprintf "minor words %d < 244" minor) true (minor < 244)

let suite =
  [
    Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
    QCheck_alcotest.to_alcotest prop_sha256_incremental;
    Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
    Alcotest.test_case "hmac verify" `Quick test_hmac_verify;
    Alcotest.test_case "chacha20 block vector" `Quick test_chacha20_block_vector;
    Alcotest.test_case "chacha20 encrypt vector" `Quick test_chacha20_encrypt_vector;
    QCheck_alcotest.to_alcotest prop_chacha20_roundtrip;
    QCheck_alcotest.to_alcotest prop_chacha20_keystream_differs;
    Alcotest.test_case "chacha20 bad sizes" `Quick test_chacha20_bad_sizes;
    Alcotest.test_case "chacha20 counter range" `Quick test_chacha20_counter_range;
    Alcotest.test_case "hmac rfc4231 cases 4-7" `Quick test_hmac_rfc4231_more;
    Alcotest.test_case "sha256 hex" `Quick test_sha256_hex;
    QCheck_alcotest.to_alcotest prop_chacha20_reference;
    QCheck_alcotest.to_alcotest prop_sha256_reference;
    QCheck_alcotest.to_alcotest prop_sha256_streaming;
    QCheck_alcotest.to_alcotest prop_hmac_reference;
    Alcotest.test_case "sha256 16KB allocation budget" `Quick test_sha256_alloc_budget;
    Alcotest.test_case "hmac 16KB allocation budget" `Quick test_hmac_alloc_budget;
  ]
