let block_size = 64

(* Fill [pad] with the key, zero-padded to the block, xor [byte]. *)
let pad_key pad key byte =
  let n = String.length key in
  for i = 0 to block_size - 1 do
    let k = if i < n then Char.code (String.unsafe_get key i) else 0 in
    Bytes.unsafe_set pad i (Char.unsafe_chr (k lxor byte))
  done

let sha256 ~key message =
  let key = if String.length key > block_size then Sha256.digest key else key in
  (* Both passes stream a padded-key block and then their message
     through a context, so neither the message nor the inner digest is
     copied. [update] compresses a whole block straight from [pad], so
     the outer pass may refill it. *)
  let pad = Bytes.create block_size in
  pad_key pad key 0x36;
  let ctx = Sha256.init () in
  Sha256.update ctx pad ~pos:0 ~len:block_size;
  Sha256.update_string ctx message;
  let inner = Sha256.finalize ctx in
  pad_key pad key 0x5c;
  let ctx = Sha256.init () in
  Sha256.update ctx pad ~pos:0 ~len:block_size;
  Sha256.update_string ctx inner;
  Sha256.finalize ctx

let sha256_hex ~key message = Sha256.hex (sha256 ~key message)

let verify ~key ~mac message =
  let computed = sha256 ~key message in
  (* Constant-time: accumulate the XOR of every byte pair. *)
  String.length mac = String.length computed
  &&
  let diff = ref 0 in
  String.iteri (fun i c -> diff := !diff lor (Char.code c lxor Char.code computed.[i])) mac;
  !diff = 0
