"""Must-flag: state a resumed run would silently lose. Attrs written on
aggregate/apply_client_update paths (one call deep included) that never
ride the server_state() round trip, and a checkpoint-hook override that
drops the base class's state by never calling super()."""

from collections import OrderedDict

from repro.fl.algorithms.base import FLAlgorithm


class ForgetfulAlgorithm(FLAlgorithm):
    name = "Forgetful"

    def setup(self):
        self.velocity = {}
        self.audit_log = []
        self.round_count = 0

    def _server_step(self, updates):
        for update in updates:
            self.velocity[update.client_id] = update.weight  # not captured

    def aggregate(self, round_idx, updates):
        self._server_step(updates)

    def apply_client_update(self, update):
        self.audit_log.append(update.client_id)  # not captured either

    def server_state(self):
        state = super().server_state()
        state["round_count"] = self.round_count  # the only attr captured
        return state

    def load_server_state(self, state):
        super().load_server_state(state)
        self.round_count = state["round_count"]


class BufferDroppingAlgorithm(FLAlgorithm):
    """Overrides server_state but rebuilds the dict from scratch — the base
    class's buffered-aggregation buffer never reaches the checkpoint."""

    name = "BufferDropping"

    def setup(self) -> None:
        self.moments = OrderedDict()

    def server_state(self) -> dict:
        return {"moments": OrderedDict(self.moments)}  # no super() merge

    def load_server_state(self, state: dict) -> None:
        super().load_server_state(state)
        self.moments = OrderedDict(state["moments"])

    def aggregate(self, round_idx, updates):
        for u in updates:
            self.moments[u.client_id] = u.weight
