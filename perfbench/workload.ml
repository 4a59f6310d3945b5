(* The four workloads and their frozen fixed rates.

   [lo] and [hi] are absolute offered rates (ops/s), calibrated once on
   a 2-vCPU host and then frozen: a later change is judged at the same
   offered load as its parent. Recalibrate only in a change that edits
   the benchmark and nothing else (README.md, "Recalibrating"). *)

type shape =
  | Static  (** SWS: keep-alive GETs of prebuilt 1 KB files *)
  | Crypto  (** SFS: each response is a 16 KB file, ChaCha20-encrypted and HMAC-tagged *)
  | Skewed  (** runtime only: every color created on worker 0, ~5 us handlers *)
  | Fine  (** runtime only: colors spread by hash, ~100 ns handlers *)

type t = {
  name : string;
  shape : shape;
  lo : float;
  hi : float;
  p90_limit_ms : float;  (** the p90 limit [max_ok_rate_ops_s] must meet *)
}

let all =
  [
    { name = "static_1k"; shape = Static; lo = 3_000.; hi = 10_000.; p90_limit_ms = 10.0 };
    { name = "crypto_16k"; shape = Crypto; lo = 250.; hi = 400.; p90_limit_ms = 50.0 };
    { name = "inject_skewed"; shape = Skewed; lo = 15_000.; hi = 40_000.; p90_limit_ms = 10.0 };
    { name = "inject_fine"; shape = Fine; lo = 60_000.; hi = 200_000.; p90_limit_ms = 10.0 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let serving w = match w.shape with Static | Crypto -> true | Skewed | Fine -> false
