"""hsis_client's stream exit rule, against a real hsis_serve.

`stats-stream` and `top` without --count stream until the server closes
the connection. The client then exits 0 when at least one tick arrived and
2 when the stream closed before any tick. Each case boots its own daemon,
and every wait is on a process's output (with a deadline), never a sleep:

* tick first: wait for the client's first tick on its stdout, then send
  `shutdown`;
* no tick: subscribe with --interval-ms 0 (the server never ticks), wait
  for the daemon's debug event for that subscription, then `shutdown`.

Usage (registered as the `client_stream_exit` ctest):

    python3 client_stream_exit.py HSIS_SERVE HSIS_CLIENT WORK_DIR
"""
import os
import queue
import subprocess
import sys
import threading

DEADLINE_S = 60


class Lines:
    """Collect a pipe's lines on a thread so a wait can carry a deadline."""

    def __init__(self, pipe):
        self.lines = queue.Queue()
        self.thread = threading.Thread(target=self._pump, args=(pipe,))
        self.thread.daemon = True
        self.thread.start()

    def _pump(self, pipe):
        for line in pipe:
            self.lines.put(line)
        self.lines.put(None)  # EOF

    def expect(self, text, what):
        while True:
            try:
                line = self.lines.get(timeout=DEADLINE_S)
            except queue.Empty:
                raise AssertionError(f"{what}: no '{text}' in {DEADLINE_S}s")
            if line is None:
                raise AssertionError(f"{what}: closed before '{text}'")
            if text in line:
                return


def run_case(serve, client, sock, command, tick_first):
    if os.path.exists(sock):
        os.remove(sock)
    server = subprocess.Popen(
        [serve, "--socket", sock, "--workers", "1", "--ledger", "none",
         "--log-level", "debug"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    stream = None
    try:
        server_out = Lines(server.stdout)
        server_err = Lines(server.stderr)
        server_out.expect("hsis_serve: listening on", "hsis_serve")
        stream = subprocess.Popen(
            [client, "--socket", sock, command,
             "--interval-ms", "100" if tick_first else "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        stream_out = Lines(stream.stdout)
        if tick_first:
            first = '"stats-tick"' if command == "stats-stream" else "tick #"
            stream_out.expect(first, f"hsis_client {command}")
        else:
            server_err.expect("stats-stream subscription", "hsis_serve")
        subprocess.run([client, "--socket", sock, "shutdown"], check=True,
                       stdout=subprocess.DEVNULL, timeout=DEADLINE_S)
        rc = stream.wait(timeout=DEADLINE_S)
        server_rc = server.wait(timeout=DEADLINE_S)
        assert server_rc == 0, f"hsis_serve exited {server_rc}"
        return rc
    finally:
        for proc in (stream, server):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()


def main():
    serve, client, work = sys.argv[1:4]
    os.makedirs(work, exist_ok=True)
    sock = os.path.join(work, "serve.sock")
    failed = False
    for command in ("stats-stream", "top"):
        for tick_first, want in ((True, 0), (False, 2)):
            rc = run_case(serve, client, sock, command, tick_first)
            case = "tick, then EOF" if tick_first else "EOF before a tick"
            ok = rc == want
            failed |= not ok
            print(f"{'ok' if ok else 'FAIL'}: {command}, {case}: "
                  f"exit {rc}, expected {want}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
