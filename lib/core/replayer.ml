include Grt_tee.Replayer
