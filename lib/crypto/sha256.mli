(** SHA-256 (FIPS 180-4), implemented from scratch.

    SFS authenticates every reply; this module provides the hash used by
    {!Hmac} for the real-runtime SFS example, and doubles as a
    CPU-intensive handler body with a verifiable result. *)

type ctx

val init : unit -> ctx
val update : ctx -> bytes -> pos:int -> len:int -> unit
(** Feed [len] bytes of the buffer from [pos]. Whole 64-byte blocks
    are compressed straight from the caller's buffer; only a partial
    block is copied into the context. *)

val update_string : ctx -> string -> unit

val finalize : ctx -> string
(** 32-byte raw digest. The context must not be reused afterwards. *)

val digest : string -> string
(** One-shot raw digest of a string. *)

val digest_hex : string -> string
(** One-shot digest rendered as 64 lowercase hex characters. *)

val hex : string -> string
(** Render any raw byte string in lowercase hex. *)
