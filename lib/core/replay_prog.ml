include Grt_tee.Replay_prog
