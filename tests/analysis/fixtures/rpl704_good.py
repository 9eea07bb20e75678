"""Clean twin of rpl704_bad: the same deep writes, but every written attr
is captured by the server_state()/load_server_state round trip; and
mutable state that no aggregate path writes needs no capture."""

from repro.fl.algorithms.base import FLAlgorithm


class CapturedAlgorithm(FLAlgorithm):
    name = "Captured"

    def setup(self):
        self.velocity = {}
        self.audit_log = []
        self.round_count = 0

    def _server_step(self, updates):
        for update in updates:
            self.velocity[update.client_id] = update.weight

    def aggregate(self, round_idx, updates):
        self._server_step(updates)

    def apply_client_update(self, update):
        self.audit_log.append(update.client_id)

    def server_state(self):
        state = super().server_state()
        state["round_count"] = self.round_count
        state["velocity"] = {cid: v for cid, v in self.velocity.items()}
        state["audit_log"] = list(self.audit_log)
        return state

    def load_server_state(self, state):
        super().load_server_state(state)
        self.round_count = state["round_count"]
        self.velocity = {int(cid): v for cid, v in state["velocity"].items()}
        self.audit_log = list(state["audit_log"])


class UnwrittenListAlgorithm(FLAlgorithm):
    """A list made in setup() that nothing writes afterwards: a resume
    rebuilds it exactly, so there is nothing to checkpoint."""

    name = "UnwrittenList"

    def setup(self):
        self.cohort_sizes = [2, 4, 8]

    def aggregate(self, round_idx, updates):
        pass
