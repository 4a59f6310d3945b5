let block_size = 64

let normalize_key key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let padded = Bytes.make block_size '\x00' in
  Bytes.blit_string key 0 padded 0 (String.length key);
  Bytes.unsafe_to_string padded

let xor_with key byte =
  String.map (fun c -> Char.chr (Char.code c lxor byte)) key

let sha256 ~key message =
  let key = normalize_key key in
  (* Stream key xor ipad, then the message, through one context: no
     copy of the message. *)
  let ctx = Sha256.init () in
  Sha256.update_string ctx (xor_with key 0x36);
  Sha256.update_string ctx message;
  let inner = Sha256.finalize ctx in
  Sha256.digest (xor_with key 0x5c ^ inner)

let sha256_hex ~key message = Sha256.hex (sha256 ~key message)

let verify ~key ~mac message =
  let computed = sha256 ~key message in
  (* Constant-time: accumulate the XOR of every byte pair. *)
  String.length mac = String.length computed
  &&
  let diff = ref 0 in
  String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code computed.[i])) mac;
  !diff = 0
