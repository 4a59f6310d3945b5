(** ChaCha20 stream cipher (RFC 8439), implemented from scratch in
    pure OCaml: the state is kept in unboxed [Int32] locals and the
    keystream is XORed 8 bytes at a time.

    The real-runtime SFS example and perfbench's [crypto_16k] workload
    encrypt reply bodies with this cipher; it is the CPU-heavy work the
    workstealing study moves between cores. Encryption and decryption
    are the same operation.

    The block counter is 32 bits. Every function raises
    [Invalid_argument] when [counter] is negative or when the last
    64-byte block it would use lies beyond [0xFFFFFFFF]: the counter
    never wraps, so no two blocks of one call share a keystream. *)

val block : key:string -> counter:int -> nonce:string -> string
(** [block ~key ~counter ~nonce] is the 64-byte keystream block for a
    32-byte key and 12-byte nonce. Raises [Invalid_argument] on wrong
    sizes or a counter outside [0, 0xFFFFFFFF]. *)

val encrypt : key:string -> nonce:string -> ?counter:int -> string -> string
(** XOR the input with the keystream starting at [counter]
    (default 1, per RFC 8439 when block 0 is reserved for the MAC
    one-time key). An input of [n] bytes uses [ceil (n / 64)] blocks,
    the last at [counter + blocks - 1]. *)

val keystream_xor : key:string -> nonce:string -> counter:int -> bytes -> unit
(** In-place variant over a [bytes] buffer, with the same counter
    limit. *)
