"""Advance one long trafficlab call a window of env steps at a time.

Each of ``train_agent``, ``evaluate_agent`` and ``run_deployment``
runs its whole stepping loop in one call. To time such a call window by
window, on a road that keeps its state from one window to the next, and
to interleave its windows with other work, the call runs in a worker
thread that pauses in ``env.step`` before every window. Only one of the two threads runs at any time: ``advance``
hands control to the worker and gets it back when the window ends, so
the call computes exactly what a direct call computes.

The pause sits in ``env.step`` and not in ``agent.act`` because
``evaluate_agent`` looks up ``env.step`` before it calls ``act`` for the
argument: a pause in ``act`` would start a window with a method looked
up in the window before, traced or not.
"""

from __future__ import annotations

import threading

from trafficlab.env import TrafficSignalEnv


class Stopped(BaseException):
    """Raised inside a paused call to end it early."""


class SteppedCall:
    """``fn(*args)`` running in a worker thread, paused before its first
    env step. Every env the call steps must be one it builds before that
    step; they are collected in ``envs``.

    A window is recorded as a span named ``span`` when ``advance`` gets
    a tracer. The span's self time is then the loop's own time in that
    window, since the loop makes every call the tracer wraps.
    """

    def __init__(self, fn, *args, span: str = ""):
        self.span = span
        self.envs: list[TrafficSignalEnv] = []
        self.result = None
        self.done = False
        self._error: BaseException | None = None
        self._left = 0
        self._tracer = None
        self._window = None  # (tracer, span index) of the open window
        self._stop = False
        self._go = threading.Semaphore(0)
        self._back = threading.Semaphore(0)
        self._thread = threading.Thread(target=self._run, args=(fn, args),
                                        daemon=True)
        # This thread waits until the worker pauses, so only the
        # worker's envs are built while __init__ is patched.
        original = TrafficSignalEnv.__init__

        def init(env, *init_args, **kwargs):
            original(env, *init_args, **kwargs)
            env.step = lambda action: self._step(env, action)
            self.envs.append(env)

        TrafficSignalEnv.__init__ = init
        try:
            self._thread.start()
            self._back.acquire()
        finally:
            TrafficSignalEnv.__init__ = original
        self._reraise()

    def _run(self, fn, args) -> None:
        try:
            self.result = fn(*args)
        except Stopped:
            pass
        except BaseException as exc:  # handed to the caller by advance
            self._error = exc
        finally:
            self._close_window()
            for env in self.envs:
                del env.step
            self.done = True
            self._back.release()

    def _step(self, env, action):
        if self._left == 0:
            self._close_window()
            self._back.release()
            self._go.acquire()
            if self._stop:
                raise Stopped
            if self._tracer is not None:
                self._window = (self._tracer, self._tracer.open(self.span))
        self._left -= 1
        return type(env).step(env, action)

    def _close_window(self) -> None:
        if self._window is not None:
            tracer, idx = self._window
            tracer.close(idx)
            self._window = None

    def _reraise(self) -> None:
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def advance(self, steps: int | None, tracer=None) -> int:
        """Let the call make ``steps`` more env steps, or run to its end
        when ``steps`` is None. Returns the steps it made; fewer means
        the call ended. Re-raises what the call raised."""
        if self.done:
            return 0
        self._left = -1 if steps is None else steps
        self._tracer = tracer
        self._go.release()
        self._back.acquire()
        self._reraise()
        return 0 if steps is None else steps - self._left

    def close(self) -> None:
        """End the call, if it is still paused, and wait for its thread."""
        if not self.done:
            self._stop = True
            self._go.release()
        self._thread.join()
