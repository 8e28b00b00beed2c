type kind =
  | Commit_request
  | Commit_response
  | Poll_offload
  | Poll_result
  | Mem_sync
  | Mem_sync_ack
  | Irq_notify
  | Recording_download
  | Control
  | Ack
  | Nak

let kind_to_int = function
  | Commit_request -> 1
  | Commit_response -> 2
  | Poll_offload -> 3
  | Poll_result -> 4
  | Mem_sync -> 5
  | Mem_sync_ack -> 6
  | Irq_notify -> 7
  | Recording_download -> 8
  | Control -> 9
  | Ack -> 10
  | Nak -> 11

let kind_of_int = function
  | 1 -> Some Commit_request
  | 2 -> Some Commit_response
  | 3 -> Some Poll_offload
  | 4 -> Some Poll_result
  | 5 -> Some Mem_sync
  | 6 -> Some Mem_sync_ack
  | 7 -> Some Irq_notify
  | 8 -> Some Recording_download
  | 9 -> Some Control
  | 10 -> Some Ack
  | 11 -> Some Nak
  | _ -> None

let magic = 0x47525446 (* "GRTF" *)

let overhead_bytes = 4 + 1 + 4 + 4 + 4 (* magic + kind + seq + length + crc *)

type msg = { kind : kind; seq : int; payload : bytes }

(* The CRC covers kind, seq, length and payload — everything after the
   magic — so a damaged sequence number is caught, not just a damaged
   payload. *)
let crc_of_body body =
  Int32.to_int (Grt_util.Hashing.crc32 body) land 0xFFFFFFFF

let seal ?(seq = 0) kind payload =
  let body = Grt_util.Byte_buf.create ~capacity:(Bytes.length payload + 13) () in
  Grt_util.Byte_buf.add_u8 body (kind_to_int kind);
  Grt_util.Byte_buf.add_u32 body (seq land 0xFFFFFFFF);
  Grt_util.Byte_buf.add_u32 body (Bytes.length payload);
  Grt_util.Byte_buf.add_bytes body payload;
  let body = Grt_util.Byte_buf.contents body in
  let buf = Grt_util.Byte_buf.create ~capacity:(Bytes.length body + 8) () in
  Grt_util.Byte_buf.add_u32 buf magic;
  Grt_util.Byte_buf.add_bytes buf body;
  Grt_util.Byte_buf.add_u32 buf (crc_of_body body);
  Grt_util.Byte_buf.contents buf

let ack ~seq = seal ~seq Ack Bytes.empty

let open_full frame =
  try
    let r = Grt_util.Byte_buf.Reader.of_bytes frame in
    let m = Grt_util.Byte_buf.Reader.u32 r in
    if m <> magic then Error "frame: bad magic"
    else
      match Grt_util.Byte_buf.Reader.u8 r |> kind_of_int with
      | None -> Error "frame: unknown kind"
      | Some kind ->
        let seq = Grt_util.Byte_buf.Reader.u32 r in
        let len = Grt_util.Byte_buf.Reader.u32 r in
        let payload = Grt_util.Byte_buf.Reader.bytes r len in
        let crc = Grt_util.Byte_buf.Reader.u32 r in
        if Grt_util.Byte_buf.Reader.remaining r <> 0 then Error "frame: trailing bytes"
        else if crc <> crc_of_body (Bytes.sub frame 4 (9 + len)) then
          Error "frame: CRC mismatch"
        else Ok { kind; seq; payload }
  with Failure _ -> Error "frame: truncated"

let open_ frame =
  match open_full frame with Ok m -> Ok (m.kind, m.payload) | Error _ as e -> e
