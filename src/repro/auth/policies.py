"""Access policies.

"The API uses Globus policies to control access to the platform and secure
the HPC resources" (§3.1.2).  A policy combines identity-provider/domain
restrictions with group requirements, evaluated per resource (the whole
service, a specific model, or a specific cluster).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from .groups import GroupService

__all__ = ["PolicyDecision", "AccessPolicy", "PolicyEngine"]


@dataclass(frozen=True)
class PolicyDecision:
    """Outcome of a policy evaluation."""

    allowed: bool
    reason: str = ""


@dataclass
class AccessPolicy:
    """Declarative access policy for a resource."""

    name: str
    #: Resource this policy protects: "service", "model:<name>" or "cluster:<name>".
    resource: str = "service"
    allowed_domains: List[str] = field(default_factory=list)
    required_groups: List[str] = field(default_factory=list)
    denied_users: List[str] = field(default_factory=list)
    #: Require the identity provider to enforce MFA (high-assurance policy).
    require_mfa: bool = False

    def evaluate(
        self,
        username: str,
        groups: GroupService,
        mfa_satisfied: bool = True,
    ) -> PolicyDecision:
        if username in self.denied_users:
            return PolicyDecision(False, f"user {username} is explicitly denied")
        if self.allowed_domains:
            domain = username.split("@", 1)[1] if "@" in username else ""
            if domain not in self.allowed_domains:
                return PolicyDecision(
                    False, f"domain {domain!r} not in allowed domains for {self.resource}"
                )
        for group in self.required_groups:
            if not groups.is_member(group, username):
                return PolicyDecision(False, f"user not in required group {group!r}")
        if self.require_mfa and not mfa_satisfied:
            return PolicyDecision(False, "multi-factor authentication required")
        return PolicyDecision(True, "allowed")


class PolicyEngine:
    """Evaluates the set of policies that apply to a resource."""

    def __init__(self, groups: GroupService):
        self.groups = groups
        self._policies: List[AccessPolicy] = []

    def add_policy(self, policy: AccessPolicy) -> None:
        self._policies.append(policy)

    @property
    def policies(self) -> Sequence[AccessPolicy]:
        return tuple(self._policies)

    def policies_for(self, resource: str) -> List[AccessPolicy]:
        """Policies protecting ``resource`` (service-wide policies always apply)."""
        return [p for p in self._policies if p.resource in ("service", resource)]

    def check(self, username: str, resource: str = "service",
              mfa_satisfied: bool = True) -> PolicyDecision:
        for policy in self.policies_for(resource):
            decision = policy.evaluate(username, self.groups, mfa_satisfied)
            if not decision.allowed:
                return decision
        return PolicyDecision(True, "allowed")
